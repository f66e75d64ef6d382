"""``chowbg.graded`` and ``chowbg.cyclic`` load on first use.

Each test runs a fresh interpreter, since in this process the test modules
have loaded both already.  The probes check that a CLI process runs no code
from either file (by the ``exec`` audit events that module code raises as
it runs), that first use from many threads at once is as safe as an
ordinary import, that the package exports its names without running
either file, that the hooks run the code once and then leave plain
modules, and that pickles of labelled values load before ``graded`` has.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from chowbg.graded import CODIM, CyclicSummand, Gamma, Generator, GradedAbelianGroup
from test_record import ALL_NAMES

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def _python(probe: str, stdin: str = "") -> str:
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(probe)],
        env=ENV,
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, ""), child.stderr
    return child.stdout


def test_cli_calls_run_no_code_from_graded_or_cyclic():
    out = _python(
        """
        import io, sys
        ran = []
        def hook(event, args):
            if event == "exec" and hasattr(args[0], "co_filename"):
                ran.append(args[0].co_filename)
        sys.addaudithook(hook)
        import chowbg.cli
        for argv in (
            ["describe", "wr(2, Z/2) x O(3)", "--max-degree", "6"],
            ["series", "GL(2)", "--max-degree", "4", "--format", "json"],
            ["presentation", "Sp(4)"],
            ["galois-exponent", "--prime", "5", "--degree", "4"],
            ["bound", "G2"],
            ["sylow", "6", "--prime", "2", "--max-degree", "3"],
        ):
            assert chowbg.cli.run(argv, io.StringIO()) == 0, argv
        names = [f.replace("\\\\", "/").rsplit("/", 1)[-1] for f in ran if "chowbg" in f]
        print(sorted(set(names)))
        print(sorted(m for m in ("chowbg.graded", "chowbg.cyclic") if m in sys.modules))
        print(sys.modules["chowbg.graded"] is chowbg.graded)
        """
    )
    files, registered, same = out.splitlines()
    assert "cli.py" in files and "models.py" in files
    assert "graded.py" not in files and "cyclic.py" not in files
    assert registered == "['chowbg.cyclic', 'chowbg.graded']"
    assert same == "True"


def test_first_use_from_eight_threads_at_once():
    # half the threads touch cyclic first (which loads graded), half graded;
    # a read that does not wait for the module's code to finish fails here
    out = _python(
        """
        import sys, threading
        import chowbg
        sys.setswitchinterval(1e-6)

        def compute():
            g = chowbg.graded
            group = g.GradedAbelianGroup(
                g.CODIM,
                tuple(g.CyclicSummand(m, d, g.Generator(f"x{m}{d}")) for m in (0, 2, 6) for d in (0, 1)),
                4,
            )
            normal = chowbg.graded.normalize(group)
            return normal, chowbg.cyclic.cyclic_power_codim(normal, 2)

        barrier = threading.Barrier(8)
        results, errors = [None] * 8, []

        def worker(i):
            barrier.wait()
            try:
                first = chowbg.cyclic.cyclic_power_codim if i % 2 else chowbg.graded.normalize
                assert callable(first)
                results[i] = compute()
            except BaseException as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = compute()
        print(errors)
        print(all(r == expected for r in results), len(expected[1].summands))
        """
    )
    errors, agreed = out.splitlines()
    assert errors == "[]"
    assert agreed.split()[0] == "True" and int(agreed.split()[1]) > 0


def test_package_exports_the_same_names():
    out = _python(
        """
        import sys
        import chowbg
        loaded = "normalize" in vars(sys.modules["chowbg.graded"])
        namespace = {}
        exec("from chowbg import *", namespace)
        print(loaded, "normalize" in vars(sys.modules["chowbg.graded"]))
        print(sorted(chowbg.__all__))
        print(sorted(set(namespace) - {"__builtins__"}) == sorted(chowbg.__all__))
        print(hasattr(chowbg, "normalize"), hasattr(chowbg, "cyclic_power_codim"))
        print(set(chowbg.__all__) <= set(dir(chowbg)))
        """
    )
    loaded, names, star, reexported, listed = out.splitlines()
    # neither the package import nor a star import runs graded's code
    assert loaded == "False False"
    assert names == str(ALL_NAMES) and len(ALL_NAMES) == 39
    assert (star, reexported, listed) == ("True", "False False", "True")


def test_hooks_load_once_and_leave_plain_modules():
    out = _python(
        """
        import sys
        import chowbg
        before = "cyclic_power_codim" in vars(chowbg.cyclic)
        print(before, "cyclic_power_codim" in dir(chowbg.cyclic))
        print("normalize" in vars(sys.modules["chowbg.graded"]))
        hooks = ("__getattr__", "__dir__")
        print([h for m in (chowbg.graded, chowbg.cyclic) for h in hooks if h in vars(m)])
        try:
            chowbg.graded.no_such_name
        except AttributeError as exc:
            print(type(exc).__name__, exc)
        """
    )
    listed, graded_ran, hooks, missing = out.splitlines()
    # dir() runs cyclic, which loads graded; a missing name does not recurse
    assert (listed, graded_ran, hooks) == ("False True", "True", "[]")
    assert missing == "AttributeError module 'chowbg.graded' has no attribute 'no_such_name'"


def test_pickle_loads_before_graded_has():
    group = GradedAbelianGroup(
        CODIM, (CyclicSummand(2, 1, Generator("a")), CyclicSummand(0, 2, Gamma(Generator("b")))), 3
    )
    data = pickle.dumps(group)
    out = _python(
        """
        import pickle, sys
        import chowbg
        print("normalize" in vars(sys.modules["chowbg.graded"]))
        group = pickle.loads(bytes.fromhex(sys.stdin.read()))
        print(repr(group))
        print(pickle.dumps(group).hex())
        """,
        stdin=data.hex(),
    )
    loaded, text, again = out.splitlines()
    assert loaded == "False"
    assert text == repr(group)
    assert pickle.loads(bytes.fromhex(again)) == group
