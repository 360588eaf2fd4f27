#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tokenweave CLI.

    python3 perfbench/run.py --workload pipeline-3ch --seed 1 --seconds 20 --trace 0

Run from a source checkout; the package is imported from `src/`, nothing is
installed.  `--trace 0` runs each stage of the workload as its own
`python -m tokenweave <stage>` child process, the way a user does, and times
it with `os.wait4` (wall time, CPU time, peak RSS).  Passes over the stages
repeat until `--seconds` have gone by, with a slice of fixed calibration work
(calibrate.py) before the first stage and after each one.  `words_per_s_ref`
and `setup_s` rescale each stage's times to the reference host speed that
the slices around it show, and report the median over passes; the raw
figures are printed too and go to the run record.
`--trace 1` calls the same stages in this process, once plainly and once
with every layer's public functions wrapped in spans (see tracing.py), and
reports per-layer self times and counts.

Every pass is followed by output checks that recompute the expected results
from the inputs (see workloads.py).  A stage that exits non-zero or fails
its check counts as failed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the metrics and
units that BENCHMARK.json lists.  A record of the run, with the environment
it ran in, goes to .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import calibrate
from tracing import ROOT_METRIC, Tracer
from workloads import UTTERANCES, WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_PASSES = 3
# Every stage must end by this many seconds after the run starts, or it is
# stopped and counted as failed; no more passes start after it.  Normal
# passes take a few seconds, and the run must exit within 180 s.
RUN_LIMIT_S = 150.0


@dataclass
class StageRun:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# set-up and checks


def clear_outputs(stages) -> None:
    """Delete what the stages wrote last pass, so a stage that writes nothing fails its check."""
    for st in stages:
        for path in st.outputs():
            path.unlink(missing_ok=True)


def time_left(deadline: float) -> float:
    return max(0.1, deadline - time.perf_counter())


def check_pass(workload, inp: Inputs, returncodes: dict[str, int], setup: dict[str, list[float]], failures: list[str], scale: float = 1.0) -> None:
    """Check one pass's outputs and record each stage that failed and why.

    The inputs are then written again, to the same bytes, so that set-up
    time is sampled across the whole run like the stages are.  Set-up times
    are recorded multiplied by `scale`.
    """
    t0 = time.perf_counter()
    errors = workload.check(inp)
    t1 = time.perf_counter()
    workload.prepare(inp.workdir, inp.seed, inp.utterances)
    setup["check"].append((t1 - t0) * scale)
    setup["prepare"].append((time.perf_counter() - t1) * scale)
    for st in workload.stages(inp):
        problem = errors.get(st.name, "output not checked")
        if returncodes[st.name] != 0:
            problem = f"exit code {returncodes[st.name]}; see {st.stdout.with_suffix('.err').name}"
        if problem is not None:
            failures.append(f"{st.name}: {problem}")


# ---------------------------------------------------------------------------
# untraced run: one child process per stage


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    # A fixed hash seed keeps set and dict layouts, and so timings, the
    # same from pass to pass.
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""), PYTHONHASHSEED="0")


class Launcher:
    """The launcher.py process, which starts each stage and times it with os.wait4."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )

    def run(self, argv: list[str], stdout: Path, timeout_s: float) -> StageRun:
        request = {
            "argv": [sys.executable, "-m", "tokenweave", *argv],
            "stdout": str(stdout),
            "stderr": str(stdout.with_suffix(".err")),
            "cwd": str(stdout.parent),
            "timeout_s": timeout_s,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the stage launcher exited early")
        return StageRun(**json.loads(reply))

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def more_passes(done: int, least: int, start: float, seconds: float, deadline: float) -> bool:
    """Whether to start another pass: at least one, and none after the deadline."""
    now = time.perf_counter()
    return not done or (now < deadline and (done < least or now - start < seconds))


def run_untraced(launcher: Launcher, workload, inp: Inputs, seconds: float, deadline: float, setup: dict[str, list[float]], failures: list[str]):
    stages = workload.stages(inp)
    # Untimed warm-up: byte-compiles the package as a user's first run does.
    launcher.run(["--help"], inp.workdir / "warmup.out", time_left(deadline))
    # A calibration slice is taken before the first stage and after every
    # stage; each stage's wall time is rescaled by the two on either side.
    slices = [calibrate.slice_s()]
    passes: list[dict[str, StageRun]] = []
    ref_walls: list[dict[str, float]] = []
    start = time.perf_counter()
    while more_passes(len(passes), MIN_PASSES, start, seconds, deadline):
        clear_outputs(stages)
        runs, ref_wall = {}, {}
        for st in stages:
            runs[st.name] = launcher.run(st.argv, st.stdout, time_left(deadline))
            slices.append(calibrate.slice_s())
            ref_wall[st.name] = runs[st.name].wall_s * 2 * calibrate.REF_S / (slices[-2] + slices[-1])
        check_pass(workload, inp, {n: r.returncode for n, r in runs.items()}, setup, failures, calibrate.REF_S / slices[-1])
        passes.append(runs)
        ref_walls.append(ref_wall)

    per_pass = [{"wall_s": sum(r.wall_s for r in p.values()), "wall_s_ref": sum(q.values())} for p, q in zip(passes, ref_walls)]
    values = {
        "words_per_s_ref": median(inp.words / p["wall_s_ref"] for p in per_pass),
        "words_per_s": median(inp.words / p["wall_s"] for p in per_pass),
        "peak_rss_mb": median(max(r.maxrss_mb for r in p.values()) for p in passes),
        "calibration_slice_s": median(slices),
    }
    per_stage = {
        st.name: {
            "wall_s": median(p[st.name].wall_s for p in passes),
            "wall_s_ref": median(p[st.name] for p in ref_walls),
            "cpu_s": median(p[st.name].cpu_s for p in passes),
            "peak_rss_mb": median(p[st.name].maxrss_mb for p in passes),
        }
        for st in stages
    }
    return values, per_stage, len(passes) * len(stages), {"passes": per_pass, "calibration_slices_s": slices}


# ---------------------------------------------------------------------------
# traced run: the same stages in this process


class StageTimeout(Exception):
    """A stage ran past the run's deadline."""


def _timed_out(signum, frame):
    raise StageTimeout("stage still running at the run's deadline")


def call_main(main, argv: list[str], stdout: Path, timeout_s: float) -> int:
    """Run `main(argv)` with its output in files; past `timeout_s` it is interrupted and fails."""
    with open(stdout, "w", encoding="utf-8") as out, open(stdout.with_suffix(".err"), "w", encoding="utf-8") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            previous = signal.signal(signal.SIGALRM, _timed_out)
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                return -1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)


def run_traced(workload, inp: Inputs, seconds: float, deadline: float, setup: dict[str, list[float]], failures: list[str]):
    sys.path.insert(0, str(SRC))
    from tokenweave import cli

    stages = workload.stages(inp)
    pairs: list[dict[str, dict[str, float]]] = []
    absent: set[str] = set()
    counter_errors: Counter[str] = Counter()
    start = time.perf_counter()
    while more_passes(len(pairs), 1, start, seconds, deadline):
        plain_wall = 0.0
        rcs = {}
        clear_outputs(stages)
        for st in stages:
            gc.collect()
            t0 = time.perf_counter()
            rcs[st.name] = call_main(cli.main, st.argv, st.stdout, time_left(deadline))
            plain_wall += time.perf_counter() - t0
        check_pass(workload, inp, rcs, setup, failures)

        pair: dict[str, dict[str, float]] = {}
        traced_wall = 0.0
        clear_outputs(stages)
        for st in stages:
            tracer = Tracer()
            tracer.install()
            try:
                gc.collect()
                t0 = time.perf_counter()
                rcs[st.name] = tracer.run(ROOT_METRIC, call_main, cli.main, st.argv, st.stdout, time_left(deadline))
                traced_wall += time.perf_counter() - t0
            finally:
                tracer.uninstall()
            pair[st.name] = {**tracer.self_times(), **tracer.counts}
            absent.update(tracer.absent)
            counter_errors.update(tracer.counter_errors)
        check_pass(workload, inp, rcs, setup, failures)
        pair["(workload)"] = {"trace.untraced_s": plain_wall, "trace.overhead_s": traced_wall - plain_wall}
        pairs.append(pair)

    keys = {k for pair in pairs for per in pair.values() for k in per}
    per_stage = {
        name: {k: median(p[name].get(k, 0) for p in pairs) for k in sorted(keys) if any(k in p[name] for p in pairs)}
        for name in pairs[0]
    }
    totals = {k: median(sum(per.get(k, 0) for per in p.values()) for p in pairs) for k in keys}
    cells = totals.get("kernels.cells", 0)
    totals["kernels.ns_per_cell"] = totals.get("kernels.edit_distance_s", 0.0) / cells * 1e9 if cells else 0.0
    extra = {"absent": sorted(absent), "counter_errors": counter_errors, "pairs": len(pairs)}
    return totals, per_stage, 2 * len(pairs) * len(stages), extra


# ---------------------------------------------------------------------------
# run record


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def kernel_backend() -> str | None:
    sys.path.insert(0, str(SRC))
    import tokenweave.kernels

    backend = getattr(tokenweave.kernels, "backend", None)
    return backend() if callable(backend) else backend


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep repeating passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tokenweave" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'tokenweave'}; run from a tokenweave checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    utterances = UTTERANCES[workload.name]
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE))
    setup: dict[str, list[float]] = {"prepare": [], "check": []}
    failures: list[str] = []
    # Started first, while this process is still small (see launcher.py).
    launcher = None if args.trace else Launcher()
    try:
        deadline = time.perf_counter() + RUN_LIMIT_S
        # The traced run's figures are not rescaled (see calibrate.py).
        scale = 1.0 if launcher is None else calibrate.REF_S / calibrate.slice_s()
        t0 = time.perf_counter()
        inp = workload.prepare(workdir, args.seed, utterances)
        setup["prepare"].append((time.perf_counter() - t0) * scale)
        if launcher is None:
            values, per_stage, attempted, extra = run_traced(workload, inp, args.seconds, deadline, setup, failures)
        else:
            values, per_stage, attempted, extra = run_untraced(launcher, workload, inp, args.seconds, deadline, setup, failures)
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    values["setup_s"] = median(setup["prepare"]) + median(setup["check"])
    values["failed_ratio"] = len(failures) / attempted

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "utterances": utterances,
        "corpus_words": inp.words,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": kernel_backend(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "attempted": attempted,
        "failures": failures,
        "metrics": values,
        "stages": per_stage,
        **extra,
    }
    (STATE / "runs").mkdir(exist_ok=True)
    record_path = STATE / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name}: seed {args.seed}, {utterances} utterances, {inp.words} words, "
          f"python {record['python']}, nproc {record['nproc']}, backend {record['backend']}")
    for name, per in per_stage.items():
        if args.trace:
            print(f"  [{name}] " + ", ".join(f"{k} {v:.6g}" for k, v in per.items()))
        else:
            print(f"  {name}_s = {per['wall_s']:.6g} s (at reference speed {per['wall_s_ref']:.6g} s; "
                  f"cpu {per['cpu_s']:.6g} s, peak RSS {per['peak_rss_mb']:.6g} MB)")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in values:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"  raw words_per_s = {values['words_per_s']:.6g} words/s; "
              f"calibration slice {values['calibration_slice_s']:.6g} s (reference {calibrate.REF_S} s)")
    print(f"  failed_ratio = {values['failed_ratio']:.6g} fraction ({len(failures)} of {attempted} stage runs)")
    for f in failures[:10]:
        print(f"  FAILED {f}", file=sys.stderr)
    print(f"  record: {record_path.relative_to(ROOT)}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
