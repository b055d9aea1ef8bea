"""Mutation run over the rational route: does the test suite notice a wrong operator?

    python tests/mutation.py

Each mutant changes one site of src/spincut/laurent.py or
src/spincut/kostant.py: + and - swapped, * made // and // made *, % made
//, < and <=, > and >= and == and != swapped, or an integer constant
raised by 1.  The module is unparsed with the change into a copy of the
repository, and the suite runs there with -x, the engine tests first, in a
process that is killed after four times the control run's time: a wrong
update in exact_divide's loop runs on towards the quotient limit for
minutes instead of failing.  The control run, of the unparsed, unmutated
sources, must pass first.

A mutant the suite passes is a survivor.  EQUIVALENT lists the survivors
that cannot change any result, each with its reason; any other survivor is
printed and the script exits 1.  The last line of output is the summary.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spincut"
MODULES = ("laurent.py", "kostant.py")
WORKERS = 2
PYTEST = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--hypothesis-seed=0",
    "tests/test_laurent.py", "tests/test_kostant.py", "tests/test_counting.py",
    "tests/test_lefschetz.py", "tests/test_cli.py", "tests", "perfbench",
]

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}

# Survivors that cannot change a result, keyed as the run prints them:
# "module | function | source line | mutation".
_CACHE = "a cache size changes what is recomputed, never a result"
_SIGN = "validation keeps every sign +1 or -1, and 2 // sign == 2 * sign for both"
EQUIVALENT = {
    "kostant.py | _counter | @lru_cache(maxsize=1024) | 1024 -> 1025": _CACHE,
    "kostant.py | _differences | @lru_cache(maxsize=4096) | 4096 -> 4097": _CACHE,
    "kostant.py | _counting_plan | @lru_cache(maxsize=32) | 32 -> 33": _CACHE,
    "kostant.py | _peel | return sum(map(count_rest, range(n, -1, -last))) | 1 -> 2":
        "the one extra term is a count at n = -1, which is 0 and charges 0 steps",
    "kostant.py | _counting_plan | (_counter(tuple(sorted(p.weights))), "
    "(p.det_weight - sum(p.weights)) // 2, 2 * p.sign) | Mult -> FloorDiv": _SIGN,
    "kostant.py | component_term | return {top: 2 * comp.sign}, comp.weights"
    " | Mult -> FloorDiv": _SIGN,
    "kostant.py | component_term | return {top: 2 * comp.sign}, (alpha,)"
    " | Mult -> FloorDiv": _SIGN,
    "kostant.py | character_rational | num, den = LaurentPoly(), LaurentPoly({0: 1})"
    " | 0 -> 1": "a start of lambda/1 multiplies num and den by lambda, the "
    "quotient is the same, and every polynomial keeps its length",
    "kostant.py | character_rational | num, den = LaurentPoly(), LaurentPoly({0: 1})"
    " | 1 -> 2": "a start of 0/2 doubles num and den, the quotient is the same, "
    "and every polynomial keeps its length",
}


def _mutants(module: str) -> list[tuple[str, str, str]]:
    """(key, module, mutated source) for every site of one module."""
    text = (PACKAGE / module).read_text()
    tree, lines = ast.parse(text), text.splitlines()
    mutants: list[tuple[str, str, str]] = []
    seen: dict[str, int] = {}

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        sites = []  # (attribute, replacement, description)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            sites.append(("op", new(), f"{type(node.op).__name__} -> {new.__name__}"))
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    ops = node.ops[:i] + [new()] + node.ops[i + 1:]
                    sites.append(("ops", ops, f"{type(op).__name__} -> {new.__name__}"))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append(("value", node.value + 1, f"{node.value} -> {node.value + 1}"))
        for attribute, replacement, description in sites:
            key = f"{module} | {function} | {lines[node.lineno - 1].strip()} | {description}"
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                key += f" #{seen[key]}"
            original = getattr(node, attribute)
            setattr(node, attribute, replacement)
            mutants.append((key, module, ast.unparse(tree)))
            setattr(node, attribute, original)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return mutants


def _run_suite(workdir: Path, timeout: float) -> str:
    """'passed', 'killed' or 'timed out'."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    process = subprocess.Popen(
        PYTEST, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return "passed" if process.wait(timeout=timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return "timed out"


def main() -> int:
    # Unparsed like the mutants, so that the control run tests that too.
    originals = {m: ast.unparse(ast.parse((PACKAGE / m).read_text())) for m in MODULES}
    mutants = [mutant for module in MODULES for mutant in _mutants(module)]

    with tempfile.TemporaryDirectory() as scratch:
        workdirs: Queue[Path] = Queue()
        ignore = shutil.ignore_patterns(".git", ".hypothesis", "__pycache__", "out")
        for i in range(WORKERS):
            workdir = Path(scratch) / f"repo{i}"
            shutil.copytree(ROOT, workdir, ignore=ignore)
            for module, source in originals.items():
                (workdir / "src" / "spincut" / module).write_text(source)
            workdirs.put(workdir)

        def run(mutant: tuple[str, str, str], timeout: float) -> str:
            _, module, source = mutant
            workdir = workdirs.get()
            target = workdir / "src" / "spincut" / module
            try:
                target.write_text(source)
                return _run_suite(workdir, timeout)
            finally:
                target.write_text(originals[module])
                workdirs.put(workdir)

        start = time.monotonic()
        control = run(("control", MODULES[0], originals[MODULES[0]]), 600)
        timeout = 4 * (time.monotonic() - start)
        if control != "passed":
            print(f"mutation: control run {control}; no mutant run")
            return 1
        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(lambda mutant: run(mutant, timeout), mutants))

    survivors = [key for (key, _, _), out in zip(mutants, outcomes) if out == "passed"]
    real = [key for key in survivors if key not in EQUIVALENT]
    stale = sorted(set(EQUIVALENT) - set(survivors))
    for (key, _, _), out in zip(mutants, outcomes):
        if out == "timed out":
            print(f"TIMED OUT: {key}")
    for key in real:
        print(f"SURVIVED: {key}")
    for key in stale:
        print(f"STALE ALLOWLIST ENTRY: {key}")
    killed, hung = outcomes.count("killed"), outcomes.count("timed out")
    print(
        f"mutation: {len(mutants)} mutants in {', '.join(MODULES)}; {killed} killed, "
        f"{hung} timed out after {timeout:.0f} s, {len(survivors) - len(real)} equivalent, "
        f"{len(real)} survived; {len(stale)} stale allowlist entries"
    )
    return 1 if real or stale else 0


if __name__ == "__main__":
    sys.exit(main())
