#!/usr/bin/env python3
"""Benchmark of the orbitkit command-line interface.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload render-10k --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

The load is a closed loop from one process: one command at a time, each a
fresh ``python -m orbitkit.cli`` process with ``src`` on the path, so every
command starts with a cold table cache, as it does for users.  Each
command's stdout goes to a file and is checked (outside the timed region)
by ``checks.py``.  Passes over the workload's command list repeat until
``--seconds`` of command time has been measured; the last pass runs to its
end, so a run holds whole passes only.

End-to-end metrics (``--trace 0``), medians over the passes of a run:

    rows_per_s   output rows that passed their check / wall time of the pass
    peak_rss_mb  largest peak RSS of one command in the pass
    setup_s      --version start-up plus generating the seeded input files

``--trace 1`` runs the commands in-process through ``orbitkit.cli.main``,
once plainly and once with the spans of ``tracing.py``, and reports the
per-layer metrics plus trace.overhead_frac = traced / untraced pass time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A command fails when it exits non-zero,
prints a traceback or fails its output check; correct means none failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

import checks
from checks import Check, Mismatch
from tracing import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
END_TO_END_UNITS = {"rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Command:
    argv: list[str]
    check: Check
    label: str


@dataclass
class Inputs:
    """Seeded orbit files; the program only ever sees the files."""

    orbits_path: Path
    orbits: list[int]
    big_path: Path
    big: int
    big_digits: int


@dataclass
class Outcome:
    label: str
    seconds: float
    rss_mb: Optional[float]
    rows: int = 0
    error: str = ""


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def rows(self) -> int:
        return sum(o.rows for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(bool(o.error) for o in self.outcomes)


# ----- workloads ------------------------------------------------------------


def _digest_cmd(*argv: str) -> Command:
    return _cmd(list(argv), checks.digest_check(argv))


def _cmd(argv: list[str], check: Check, label: str = "") -> Command:
    return Command(argv, check, label or " ".join(argv))


def render_10k(small: bool, inputs: Optional[Inputs]) -> list[Command]:
    x = "200" if small else "10000"
    return [
        _cmd(["table", "--map", "f", "--max", x], checks.table_check(int(x), checks.fix_f)),
        _digest_cmd("pnt", "--map", "f", "--max", x),
        _digest_cmd("merten", "--map", "f", "--max", x, "--format", "json"),
    ]


def zeta_3k(small: bool, inputs: Optional[Inputs]) -> list[Command]:
    d_f, d_g, d_xi, d_scan = (60, 40, 60, 200) if small else (3000, 2000, 3000, 10000)
    orbits_f = checks.orbits_from_fix([checks.fix_f(n) for n in range(1, d_f + 1)])
    return [
        _cmd(["zeta", "coeffs", "--map", "f", "--degree", str(d_f)],
             checks.zeta_product_check(d_f, orbits_f)),
        _cmd(["zeta", "coeffs", "--map", "g", "--degree", str(d_g)],
             checks.zeta_doubling_check(d_g)),
        _cmd(["zeta", "xi1-check", "--degree", str(d_xi)], checks.xi1_check(d_xi)),
        _digest_cmd("zeta", "boundary", "--angle", "1/3", "--radii", "0.49,0.499,0.4999",
                    "--terms", "10", "--degree", str(d_scan)),
    ]


def verify_5k(small: bool, inputs: Optional[Inputs]) -> list[Command]:
    x = "100" if small else "5000"
    return [_cmd(["verify", "--max", x], checks.verify_check)]


def _iterate(small: bool, inputs: Inputs, g2_max: int) -> list[Command]:
    custom_max, zeta_degree, f2_max = (200, 60, 100) if small else (10000, 2000, 5000)
    orbits, big = str(inputs.orbits_path), str(inputs.big_path)
    return [
        _cmd(["table", "--map", "g2", "--max", str(g2_max)],
             checks.table_check(g2_max, checks.fix_g2)),
        _cmd(["table", "--map", "f2", "--max", str(f2_max)],
             checks.table_check(f2_max, checks.fix_f2)),
        _cmd(["table", "--map", orbits, "--max", str(custom_max)],
             checks.table_check(custom_max, orbits=inputs.orbits),
             f"table --map <orbits> --max {custom_max}"),
        _cmd(["zeta", "coeffs", "--map", orbits, "--degree", str(zeta_degree)],
             checks.zeta_product_check(zeta_degree, inputs.orbits),
             f"zeta coeffs --map <orbits> --degree {zeta_degree}"),
        _cmd(["table", "--map", big, "--max", "5" if small else "50"],
             checks.table_check(5 if small else 50, orbits=[inputs.big]),
             f"table --map <{inputs.big_digits}-digit count> --max {5 if small else 50}"),
    ]


def iterate_custom(small: bool, inputs: Inputs) -> list[Command]:
    # g2 at 7000 has 4215-digit counts, below CPython's 4300-digit str() cap.
    return _iterate(small, inputs, 100 if small else 7000)


def iterate_cap(small: bool, inputs: Inputs) -> list[Command]:
    return _iterate(small, inputs, 100 if small else 8000)


def make_inputs(small: bool, rng: random.Random, directory: Path,
                big_digits: int) -> Inputs:
    """A file of small random orbit counts and a one-line file with a big count."""
    directory.mkdir(parents=True, exist_ok=True)
    orbits = [rng.randint(0, 9) for _ in range(200 if small else 10000)]
    digits = 50 if small else big_digits
    big = rng.randrange(10 ** (digits - 1), 10**digits)
    orbits_path, big_path = directory / "orbits.txt", directory / "big.txt"
    orbits_path.write_text("".join(f"{c}\n" for c in orbits), encoding="ascii")
    with checks.unlimited_int_digits():
        big_path.write_text(f"{big}\n", encoding="ascii")
    return Inputs(orbits_path, orbits, big_path, big, digits)


@dataclass(frozen=True)
class Workload:
    commands: Callable[[bool, Optional[Inputs]], list[Command]]
    # Per-layer metrics the workload exercises: a traced run that reads 0 on
    # one of them has lost a call site, and the smoke mode fails on it.
    layers: tuple[str, ...]
    # Digits of the big count in the seeded one-line file; 0: no seeded input.
    big_digits: int = 0


_RENDER_LAYERS = ("cli.self_s", "output.format_s", "output.write_table_s", "output.bytes",
                  "output.rows", "counting.build_table_s", "arith.self_s", "arith.calls",
                  "asymptotics.ratio_series_s", "asymptotics.merten_series_s")
_ZETA_LAYERS = ("zeta.zeta_series_s", "zeta.xi1_closed_form_s", "zeta.radial_scan_s",
                "series.self_s", "zeta.mul_ops", "zeta.coeff_bits")
_VERIFY_LAYERS = ("asymptotics.ratio_series_s", "asymptotics.merten_series_s",
                  "asymptotics.delta_gap_s", "asymptotics.delta_gap_calls",
                  "zeta.orbit_product_series_s", "verify.run_checks_s", "verify.self_s",
                  "verify.checks")
_ITERATE_LAYERS = ("cli.self_s", "output.write_table_s", "output.rows",
                   "counting.build_table_s", "arith.self_s", "arith.calls",
                   "zeta.zeta_series_s")
# BENCHMARK.json records why each workload was chosen.  iterate-cap is not
# listed there: it is iterate-custom at the sizes where CPython's 4300-digit
# str<->int cap makes two commands fail at the seed commit, and the listed
# workloads must run without failures.
WORKLOADS = {
    "render-10k": Workload(render_10k, _RENDER_LAYERS),
    "zeta-3k": Workload(zeta_3k, _ZETA_LAYERS),
    "verify-5k": Workload(verify_5k, _VERIFY_LAYERS),
    "iterate-custom": Workload(iterate_custom, _ITERATE_LAYERS, big_digits=4000),
    "iterate-cap": Workload(iterate_cap, _ITERATE_LAYERS, big_digits=5000),
}


# ----- running commands -----------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ORBITKIT_PRECISION_BITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _judge(cmd: Command, data: bytes, exit_code: int, stderr: str) -> tuple[int, str]:
    """Rows verified and the failure reason ('' when the command passed)."""
    if "Traceback (most recent call last)" in stderr:
        return 0, "traceback: " + stderr.strip().splitlines()[-1]
    if exit_code != 0:
        return 0, f"exit {exit_code}: " + " ".join(stderr.split())[:200]
    try:
        return checks.verdict(cmd.check, data), ""
    except Mismatch as exc:
        return 0, f"wrong output: {exc}"


class Launcher:
    """The small process (launcher.py) that starts every timed command."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv: list[str], workdir: Path) -> tuple[float, float, int]:
        """Run the CLI once; returns seconds, peak RSS in MB and exit code."""
        request = {"argv": [sys.executable, "-m", "orbitkit.cli", *argv],
                   "stdout": str(workdir / "stdout"), "stderr": str(workdir / "stderr"),
                   "cwd": str(workdir)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["seconds"], reply["maxrss_kb"] / 1024, reply["exit_code"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_command(cmd: Command, workdir: Path, launcher: Launcher) -> tuple[Outcome, bytes]:
    """Run and check one command; the check is outside the timed region."""
    seconds, rss_mb, exit_code = launcher.run(cmd.argv, workdir)
    data = (workdir / "stdout").read_bytes()
    stderr = (workdir / "stderr").read_text(encoding="utf-8", errors="replace")
    rows, error = _judge(cmd, data, exit_code, stderr)
    return Outcome(cmd.label, seconds, rss_mb, rows, error), data


def subprocess_pass(commands: list[Command], workdir: Path, launcher: Launcher) -> Pass:
    return Pass([run_command(cmd, workdir, launcher)[0] for cmd in commands])


class _ByteSink(io.TextIOBase):
    """stdout stand-in that keeps the bytes written, for the output check."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, text: str) -> int:
        self.data += text.encode("utf-8")
        return len(text)


def inprocess_pass(commands: list[Command], modules: dict,
                   tracer: Optional[Tracer]) -> tuple[Pass, int]:
    """Call orbitkit.cli.main in this process; returns the pass and bytes written."""
    result, total_bytes = Pass(), 0
    cache = getattr(modules["counting"], "_TABLE_CACHE", None)
    if tracer is not None:
        tracer.install(modules)
    try:
        for cmd in commands:
            if cache is not None:
                cache.clear()  # each CLI command starts with a cold cache
            sink, err = _ByteSink(), io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                try:
                    exit_code = modules["cli"].main(list(cmd.argv))
                except Exception:  # an uncaught error is what a user sees as a traceback
                    traceback.print_exc(file=err)
                    exit_code = 1
            seconds = perf_counter() - start
            rows, error = _judge(cmd, sink.data, exit_code, err.getvalue())
            result.outcomes.append(Outcome(cmd.label, seconds, None, rows, error))
            total_bytes += len(sink.data)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, total_bytes


# ----- set-up, environment, reporting ---------------------------------------


def setup(workload: Workload, small: bool, seed: int, workdir: Path,
          launcher: Launcher, repeats: int) -> tuple[list[float], Optional[Inputs]]:
    """Time --version start-up plus input generation, ``repeats`` times."""
    # One untimed start compiles the bytecode caches, which users pay once.
    launcher.run(["--version"], workdir)
    samples, inputs = [], None
    for _ in range(repeats):
        seconds, _, exit_code = launcher.run(["--version"], workdir)
        if exit_code != 0 or not (workdir / "stdout").read_bytes().strip():
            raise RuntimeError("orbitkit --version failed: "
                               + (workdir / "stderr").read_text(errors="replace"))
        start = perf_counter()
        if workload.big_digits:
            inputs = make_inputs(small, random.Random(seed), workdir / "inputs",
                                 workload.big_digits)
        samples.append(seconds + perf_counter() - start)
    return samples, inputs


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": importlib.metadata.version("mpmath"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "ORBITKIT_PRECISION_BITS": "unset (forced)",
    }


def summary(values: list[float]) -> dict:
    """Median and quartiles with the sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def print_outcomes(title: str, passes: list[Pass]) -> None:
    print(title)
    for i, p in enumerate(passes, start=1):
        for o in p.outcomes:
            verdict = "FAIL" if o.error else "ok"
            rss = "" if o.rss_mb is None else f"{o.rss_mb:8.1f} MB"
            print(f"  pass {i}  {verdict:4} {o.seconds:8.3f} s {rss} {o.rows:6d} rows  "
                  f"{o.label}" + (f"  [{o.error}]" if o.error else ""))


def result_line(passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> dict:
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


@contextlib.contextmanager
def workspace(prefix: str) -> Iterator[tuple[Path, Launcher]]:
    """A scratch directory inside the checkout and a running launcher."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        with Launcher(child_env()) as launcher:
            yield workdir, launcher
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    workload = WORKLOADS[name]
    with workspace(f"{name}-") as (workdir, launcher):
        setup_samples, inputs = setup(workload, small, seed, workdir, launcher,
                                      1 if trace else setup_repeats)
        commands = workload.commands(small, inputs)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "small": small, "environment": environment()}
        if trace:
            passes, metrics, record["trace_problems"] = _traced_run(
                name, seed, commands, workload.layers)
        else:
            passes, metrics, record["samples"] = _timed_run(commands, workdir, launcher,
                                                            seconds, setup_samples)
        record["passes"] = len(passes)
        failed = sum(p.failed for p in passes)
        attempted = sum(len(p.outcomes) for p in passes)
        print_outcomes(f"{name} seed={seed} trace={int(trace)}: {attempted} commands, "
                       f"{failed} failed (failed_frac {failed / attempted:.3f})", passes)
        for metric, (value, unit) in metrics.items():
            spread = record.get("samples", {}).get(metric)
            print(f"  {metric:28} {value:14.6g} {unit:7}" + (
                "" if spread is None else
                f"  samples: median {spread['median']:.6g}, q1 {spread['q1']:.6g}, "
                f"q3 {spread['q3']:.6g}, n={spread['n']}"))
        # Reported here only: 0 on every listed workload, so it is carried
        # by the result line's failed/attempted, not by its metrics.
        print(f"  {'failed_frac':28} {failed / attempted:14.6g} share")
        print("record " + json.dumps(record))
        return result_line(passes, metrics), record


def _timed_run(commands, workdir, launcher, seconds, setup_samples):
    passes: list[Pass] = []
    measured = 0.0
    while not passes or measured < seconds:
        passes.append(subprocess_pass(commands, workdir, launcher))
        measured += passes[-1].seconds
    # Goodput of a median pass: each command's median rows and wall time
    # across passes, which keeps one disturbed command from moving the run.
    per_command = list(zip(*(p.outcomes for p in passes)))
    rows = sum(statistics.median(o.rows for o in runs) for runs in per_command)
    seconds = sum(statistics.median(o.seconds for o in runs) for runs in per_command)
    samples = {"rows_per_s": summary([p.rows / p.seconds for p in passes]),
               "peak_rss_mb": summary([max(o.rss_mb for o in p.outcomes) for p in passes]),
               "setup_s": summary(setup_samples)}
    values = {"rows_per_s": rows / seconds, "peak_rss_mb": samples["peak_rss_mb"]["median"],
              "setup_s": samples["setup_s"]["median"]}
    metrics = {m: (values[m], unit) for m, unit in END_TO_END_UNITS.items()}
    return passes, metrics, samples


def _traced_run(name, seed, commands, layers):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("ORBITKIT_PRECISION_BITS", None)
    modules = {m: importlib.import_module(f"orbitkit.{m}")
               for m in ("cli", "counting", "verify", "asymptotics", "zeta", "series")}
    plain, _ = inprocess_pass(commands, modules, None)
    tracer = Tracer()
    traced, written = inprocess_pass(commands, modules, tracer)
    tracer.dump(WORK / "traces" / f"{name}-seed{seed}.json")
    layer = tracer.layer_metrics()
    layer["output.bytes"] = written
    layer["output.rows"] = traced.rows
    layer["trace.overhead_frac"] = traced.seconds / plain.seconds
    problems = [f"unbound call site {site}" for site in tracer.unbound]
    problems += [f"{m} reads 0" for m in layers if not layer[m]]
    for problem in problems:
        print(f"trace problem: {problem}")
    metrics = {m: (layer[m], unit) for m, unit in LAYER_METRICS.items()}
    return [plain, traced], metrics, problems


# ----- smoke test -----------------------------------------------------------


def smoke() -> list[str]:
    """Tiny-size run of every listed workload; returns the problems found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    listed = [w["name"] for w in spec["workloads"]]
    if set(listed) - set(WORKLOADS):
        problems.append(f"unknown workloads in BENCHMARK.json: {listed}")
    # Every per-layer metric but these two must be exercised by a listed workload.
    unexercised = set(LAYER_METRICS) - {"verify.checks_failed", "trace.overhead_frac"}
    for name in listed:
        unexercised -= set(WORKLOADS[name].layers)
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, record = run(name, seed=1, seconds=0, trace=trace, small=True,
                                 setup_repeats=1)
            missing = {m["name"] for m in wanted} - set(result["metrics"])
            if missing or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: correct={result['correct']}, "
                                f"missing metrics {sorted(missing)}")
            problems += [f"{name}: {p}" for p in record.get("trace_problems", ())]
        # Every command's check must reject a tampered copy of its real output.
        with workspace("tamper-") as (workdir, launcher):
            _, inputs = setup(WORKLOADS[name], True, 1, workdir, launcher, 1)
            for cmd in WORKLOADS[name].commands(True, inputs):
                outcome, data = run_command(cmd, workdir, launcher)
                if outcome.error:
                    problems.append(f"{cmd.label}: {outcome.error}")
                    continue
                try:
                    checks.verdict(cmd.check, checks.tamper(data))
                    problems.append(f"{cmd.label}: tampered output passed its check")
                except Mismatch as exc:
                    print(f"  tampered output caught: {cmd.label}: {exc}")
    if unexercised:
        problems.append(f"no listed workload exercises {sorted(unexercised)}")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload; checks metrics and tamper detection")
    args = parser.parse_args(argv)
    if not (SRC / "orbitkit" / "cli.py").is_file():
        print(f"perfbench: no orbitkit source under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(f"smoke FAIL: {problem}")
        print("smoke " + ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
