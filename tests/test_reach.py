"""Every public def of ``src/repro`` is entered by an entry point or is
listed, with a reason, in ``tests/unreached.txt``.

``tests/reach_driver.py`` runs the entry points; a ``sitecustomize.py``
on its ``PYTHONPATH`` profiles it and every process it spawns.  A public
def (module-level function or method of a module-level class, no leading
``_`` on either; ``__init__`` and ``__call__`` count) is reached when the
code starting at its def or first decorator line was entered.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
LISTED = REPO / "tests" / "unreached.txt"
REASONS = ("paper:", "bench:", "oracle:", "roadmap:", "introspection:")

SITECUSTOMIZE = '''
import atexit, json, os, sys, threading
_seen = set()
def _hook(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def _dump(out=os.environ["REACH_OUT"], src=os.environ["REACH_SRC"]):
    sys.setprofile(None)
    with open(os.path.join(out, "reach-%d.json" % os.getpid()), "w") as fh:
        json.dump(sorted(h for h in _seen if h[0].startswith(src)), fh)
sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_dump)
'''


def public_defs():
    """``{"src/repro/x.py::Class.name": {def line, first decorator line}}``
    and, per entry, the number of lines its longest def spans."""
    defs, sizes = {}, {}

    def add(path, node, qualname):
        key = f"{path.relative_to(REPO)}::{qualname}"
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        defs.setdefault(key, set()).update({node.lineno, first})
        sizes[key] = max(sizes.get(key, 0), node.end_lineno - first + 1)

    def public(name):
        return not name.startswith("_") or name in ("__init__", "__call__")

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions) and public(node.name):
                add(path, node, node.name)
            elif isinstance(node, ast.ClassDef) and public(node.name):
                for item in node.body:
                    if isinstance(item, functions) and public(item.name):
                        add(path, item, f"{node.name}.{item.name}")
    return defs, sizes


def measured_unreached(tmp_path, tc_model_path):
    """Run the driver under the hook; the public defs it never entered."""
    out, work = tmp_path / "reach", tmp_path / "work"
    out.mkdir()
    work.mkdir()
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{REPO / 'src'}",
               REACH_OUT=str(out), REACH_SRC=str(SRC) + os.sep)
    env.pop("REPRO_RUNS_DB", None)
    proc = subprocess.run([sys.executable, str(REPO / "tests" / "reach_driver.py"),
                           str(work), tc_model_path], cwd=work, env=env,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    entered = {(os.path.realpath(f), line) for dump in out.glob("reach-*.json")
               for f, line in json.loads(dump.read_text())}
    return sorted(
        key for key, lines in public_defs()[0].items()
        if not any((str(REPO / key.split("::")[0]), line) in entered
                   for line in lines)
    )


def read_listed():
    """``{entry: reason}`` from ``tests/unreached.txt``."""
    pairs = (line.partition("#") for line in LISTED.read_text().splitlines()
             if line.strip() and not line.startswith("#"))
    return {entry.strip(): reason.strip() for entry, _, reason in pairs}


def reason_problem(entry, reason, sizes):
    """Why *reason* does not justify keeping *entry* (``None`` if it does)."""
    if not reason.startswith(REASONS):
        return f"the reason must start with one of {', '.join(REASONS)}"
    if reason.startswith("introspection:"):
        if sizes.get(entry, 0) > 8:
            return "an introspection accessor has at most 8 lines"
        path, _, name = reason.split(":", 1)[1].strip().partition("::")
        test = REPO / path
        if not (test.is_file() and f"def {name.split('::')[-1]}(" in test.read_text()):
            return "an introspection reason names an existing tier-1 test"
    return None


def test_every_public_def_is_reached_or_listed(tmp_path, tc_model_path):
    listed = read_listed()
    sizes = public_defs()[1]
    bad = [f"{entry}  # {reason}  <- {problem}"
           for entry, reason in listed.items()
           if (problem := reason_problem(entry, reason, sizes))]
    assert not bad, f"bad reasons in {LISTED.name}:\n" + "\n".join(bad)

    unreached = measured_unreached(tmp_path, tc_model_path)
    add = [e for e in unreached if e not in listed]
    drop = [e for e in listed if e not in unreached]
    per_file = Counter(e.split("::")[0] for e in unreached)
    assert not add and not drop, "\n".join(
        [f"{LISTED.name} differs from the measured unreached set.",
         "add (and give a reason, or delete the def):"]
        + [f"  {e}  # <reason>" for e in add]
        + ["drop (now reached, or no longer exists):"] + [f"  {e}" for e in drop]
        + [f"unreached public defs per file ({len(unreached)} in all):"]
        + [f"  {n:3d} {f}" for f, n in sorted(per_file.items())])
