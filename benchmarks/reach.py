"""Which ``src/repro`` functions does the measured traffic call?

::

    python benchmarks/reach.py [--check]

Runs the traffic in a temporary copy of the repository (so the benches
rewrite no tracked result) with a ``sitecustomize`` on ``PYTHONPATH``
that installs a ``sys.setprofile``/``threading.setprofile`` hook in
every Python process and records each code object it sees called:

* the four e2e workloads: ``run.py --seconds 5``, ``--smoke`` and the
  traced ``serve_mixed`` smoke;
* every paper bench (``benchmarks/bench_*.py``, under pytest);
* every example (``examples/*.py``).

An ``ast`` walk of ``src/repro`` lists every function and method; a
function is *unreached* when the traffic never called it and no
enclosing function is unreached too (only the outermost one counts).
Declarations whose body is only a docstring, ``...``, ``pass`` or
``raise NotImplementedError`` are not counted. Each unreached function
must be named, itself or through an enclosing class or module, in the
public-API list of ``ARCHITECTURE.md`` (the section below
``API_HEADING``, one ``- `module:Qualname` — reason`` item each).
Entries no unreached function maps to are listed at the end of the
report, not failed on.

The report goes to ``benchmarks/results/reach.txt``, keyed by module
and qualname (no line numbers, so its diff follows the code, not
edits around it). ``--check`` exits non-zero when an unreached function
is on no list. The hook slows the interpreter several times over, so
never run this beside a timed step.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT = os.path.join(REPO, "benchmarks", "results", "reach.txt")
ARCHITECTURE = os.path.join(REPO, "ARCHITECTURE.md")
API_HEADING = "## Public API no workload reaches"

#: what is copied for the traffic to run in
COPY = ("src", "benchmarks", "examples", "conftest.py", "pyproject.toml",
        "BENCHMARK.json")

#: written into the copy; every Python process started with it on
#: ``PYTHONPATH`` appends ``filename:firstlineno`` of each called
#: ``src/repro`` code object to ``$REACH_OUT/<pid>.txt`` at exit
SITECUSTOMIZE = '''
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    prefix = os.environ["REACH_SRC"]
    lines = {
        f"{code.co_filename}:{code.co_firstlineno}"
        for code in list(_seen)
        if code.co_filename.startswith(prefix)
    }
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as f:
        f.write("\\n".join(sorted(lines)))


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def traffic(root: str, out: str) -> list[list[str]]:
    """Every command of the measured traffic, run from ``root``."""
    py = sys.executable
    run = os.path.join("benchmarks", "e2e", "run.py")
    cmds = [
        [py, run, "--seconds", "5", "--out", out],
        [py, run, "--smoke", "--out", out],
        [py, run, "--workload", "serve_mixed", "--smoke", "--trace", "1",
         "--out", out],
        [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *sorted(glob.glob("benchmarks/bench_*.py", root_dir=root))],
    ]
    cmds += [[py, path] for path in
             sorted(glob.glob("examples/*.py", root_dir=root))]
    return cmds


def record():
    """Run the traffic in a temporary copy; return the called code
    objects as ``(path below src/, firstlineno)`` and the copy's
    :func:`functions` (the code that ran, even if the tree changes
    meanwhile)."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        root = os.path.join(tmp, "repo")
        for name in COPY:
            src = os.path.join(REPO, name)
            dst = os.path.join(root, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".bench_e2e"))
            else:
                os.makedirs(root, exist_ok=True)
                shutil.copy(src, dst)
        hook_dir = os.path.join(tmp, "hook")
        calls = os.path.join(tmp, "calls")
        os.makedirs(hook_dir)
        os.makedirs(calls)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as f:
            f.write(SITECUSTOMIZE)
        src_root = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([hook_dir, src_root])
        env["REACH_SRC"] = src_root + os.sep
        env["REACH_OUT"] = calls
        status = 0
        for cmd in traffic(root, os.path.join(tmp, "e2e-out")):
            print("reach: running", " ".join(cmd[1:]), flush=True)
            proc = subprocess.run(cmd, cwd=root, env=env,
                                  stdout=subprocess.DEVNULL, check=False)
            if proc.returncode != 0:
                print(f"reach: exit {proc.returncode}", flush=True)
                status = 1
        if status:
            raise SystemExit("reach: the traffic failed; no report")
        reached = set()
        for path in glob.glob(os.path.join(calls, "*.txt")):
            with open(path) as f:
                for line in f.read().split():
                    name, _, lineno = line.rpartition(":")
                    reached.add((os.path.relpath(name, src_root), int(lineno)))
        return reached, functions(src_root)


def _is_declaration(node) -> bool:
    """A body of only a docstring, ``pass``, ``...`` or ``raise
    NotImplementedError``: a protocol or abstract declaration."""
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def functions(src_root: str):
    """Every function of ``src_root/repro``: ``(relpath, firstlineno,
    module, qualname, lines, enclosing function or None, is
    declaration)``."""
    out = []
    for path in sorted(glob.glob(os.path.join(src_root, "repro", "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, src_root)
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)

        def walk(node, prefix, enclosing):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", enclosing)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    key = (rel, first)
                    out.append((rel, first, module, qualname,
                                child.end_lineno - first + 1, enclosing,
                                _is_declaration(child)))
                    walk(child, f"{qualname}.<locals>.", key)
                else:
                    walk(child, prefix, enclosing)

        walk(tree, "", None)
    return out


def api_list() -> dict[str, str]:
    """``module[:qualname]`` -> reason, from ARCHITECTURE.md."""
    entries: dict[str, str] = {}
    inside = False
    with open(ARCHITECTURE, encoding="utf-8") as f:
        for line in f:
            if line.startswith("## "):
                inside = line.strip() == API_HEADING
                continue
            m = inside and re.match(r"- `(repro[\w.]*(?::[\w.]+)?)` — (.+)",
                                    line)
            if m:
                if m.group(1) in entries:
                    raise SystemExit(f"reach: {m.group(1)} listed twice")
                entries[m.group(1)] = m.group(2).strip()
    return entries


def listed_under(module: str, qualname: str, entries) -> str | None:
    """The entry that names this function, its class or its module."""
    if module in entries:
        return module
    parts = qualname.split(".")
    for i in range(len(parts), 0, -1):
        key = f"{module}:{'.'.join(parts[:i])}"
        if key in entries:
            return key
    return None


def analyse(reached, funcs):
    """Per module ``[reached, total]``, and the outermost unreached
    functions as ``(module, qualname, lines)``."""
    per_module: dict[str, list[int]] = {}
    unreached = []
    for rel, first, module, qualname, lines, enclosing, decl in funcs:
        if decl:
            continue
        tally = per_module.setdefault(module, [0, 0])
        tally[1] += 1
        if (rel, first) in reached:
            tally[0] += 1
        elif enclosing is None or enclosing in reached:
            unreached.append((module, qualname, lines))
    return per_module, unreached


def report(per_module, unreached, entries) -> tuple[list[str], list[str]]:
    total = sum(t[1] for t in per_module.values())
    hit = sum(t[0] for t in per_module.values())
    lines = [
        "# src/repro functions the traffic calls (benchmarks/reach.py)",
        "# traffic: e2e run.py --seconds 5, --smoke, serve_mixed --smoke"
        " --trace 1; benchmarks/bench_*.py; examples/*.py",
        f"functions {total}, reached {hit}, unreached {len(unreached)}"
        f" ({sum(n for *_, n in unreached)} lines)",
        "",
        "# module: reached/total",
    ]
    lines += [f"{m}: {r}/{t}" for m, (r, t) in sorted(per_module.items())]
    lines += ["", "# unreached: module:qualname -> the API-list entry"]
    unlisted = []
    used = set()
    for module, qualname, _n in sorted(unreached):
        entry = listed_under(module, qualname, entries)
        used.add(entry)
        lines.append(f"{module}:{qualname} -> {entry or 'NOT LISTED'}")
        if entry is None:
            unlisted.append(f"{module}:{qualname}")
    stale = sorted(set(entries) - used)
    if stale:
        # not a failure: a path the traffic takes only sometimes (an
        # admission rejection under load) must not flip the check
        lines += ["", "# listed but reached this run (or gone)"]
        lines += stale
    return lines, unlisted


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true",
                   help="fail when an unreached function is on no list")
    args = p.parse_args(argv)
    per_module, unreached = analyse(*record())
    lines, unlisted = report(per_module, unreached, api_list())
    with open(REPORT, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines[:3]))
    print(f"wrote {os.path.relpath(REPORT, REPO)}")
    if unlisted:
        print("reach: unreached and not in ARCHITECTURE.md's API list:")
        print("\n".join(f"  {name}" for name in unlisted))
    return 1 if args.check and unlisted else 0


if __name__ == "__main__":
    raise SystemExit(main())
