"""The argparse parser of ``cli.VERBS``, the verbs' argument declaration.

Only help and usage errors build it: ``cli`` reads a well-formed argv from
the declaration itself, so such a request neither imports argparse nor
compiles this module.
"""

from __future__ import annotations

import argparse


def argparse_parser(verbs: dict) -> argparse.ArgumentParser:
    """One subparser per verb, with its runner as ``args.run``."""
    parser = argparse.ArgumentParser(
        prog="chowbg",
        description="Additive structure and presentations of Chow rings of classifying spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help, runner, arguments) in verbs.items():
        verb_parser = sub.add_parser(verb, help=help)
        verb_parser.set_defaults(run=runner)
        for argument in arguments:
            if isinstance(argument[0], tuple):  # a mutually exclusive group
                group = verb_parser.add_mutually_exclusive_group()
                for name, options in argument:
                    group.add_argument(name, **_typed(options))
            else:
                verb_parser.add_argument(argument[0], **_typed(argument[1]))
    return parser


def _typed(options: dict) -> dict:
    """options with its check, which refuses a value by ValueError, turned
    into the argparse type that reports the same text as a usage error."""
    if "type" not in options:
        return options
    check = options["type"]

    def convert(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return {**options, "type": convert}
