"""The repr and pickling of interned group tree nodes, compiled on first use.

``groups._Node.__repr__`` and ``__reduce__`` delegate here: both walk the tree
of ``Wreath`` and ``Product`` nodes on explicit stacks, so a deep tower
prints, pickles and copies at the default recursion limit.  No table request
prints or pickles a node.
"""

from __future__ import annotations

from .groups import _Node, _unflatten


def node_repr(node: _Node) -> str:
    """``Record``'s text, from a stack of pending text and nodes."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if not isinstance(item, _Node):
            out.append(item)
            continue
        parts = [f"{item.__class__.__qualname__}("]
        for i, (name, value) in enumerate(zip(item.__slots__, item._values(item))):
            text = value if isinstance(value, _Node) else repr(value)
            parts += (f"{', ' if i else ''}{name}=", text)
        stack += reversed(parts + [")"])
    return "".join(out)


def node_reduce(root: _Node):
    """A flat post-order list of (class, field values), each child node
    given as the one-item list of its index, which no field value is
    (field values are hashable): pickling and copying do not recurse.
    ``groups._unflatten`` builds it back."""
    index, entries, stack = {}, [], [root]
    while stack:
        node = stack[-1]
        values = node._values(node)
        children = [v for v in values if isinstance(v, _Node) and v not in index]
        if children:
            stack += reversed(children)
            continue
        stack.pop()
        if node not in index:
            index[node] = len(entries)
            fields = tuple([index[v]] if isinstance(v, _Node) else v for v in values)
            entries.append((node.__class__, fields))
    return (_unflatten, (entries,))
