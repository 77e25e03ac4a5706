"""One benchmark run: set-up, timed CLI calls, output checks, metrics.

Every operation is one ``panokit.cli.main(argv)`` call on one image, in this
process, with default flags (so ``--threads 1``), timed from outside.
Single calls of all operations are interleaved over the run: the next call
always goes to the operation that has used the least call time. So every
operation gets an equal share of the run and its calls are spread evenly
over it, even the slowest one's.

Throughput is images over call time, summed over every untraced call. On
the shared 2-vCPU host the benchmark was defined on, contention from other
tenants comes in phases of seconds to minutes that slow every call by up to
1.7x. A median or a minimum of call times then flips between a fast and a
slow level from run to run, depending on which phases a run happens to
catch; the plain total moves smoothly with the share of slow time, and
spreading each operation's calls over the whole run gives every operation
the same share.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import panokit.cli

import checks
from tracing import SPANS, Tracer
from workloads import (
    FUSE_HEAD_SEED,
    REFERENCE_SEED,
    ROOT,
    TOKEN_QUERIES,
    WORK,
    Workload,
    image_id,
    write_image,
)

HERE = Path(__file__).resolve().parent

STRATEGIES = {
    "merge": "maskwise",
    "argmax": "argmax",
    "argmax_weighted": "argmax-weighted",
    "heuristic": "heuristic",
}
OPS = (*STRATEGIES, "eval", "stats", "assign", "fuse")

END_TO_END = {
    **{f"{op}_img_per_s": "img/s" for op in OPS},
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stack_set_mb_per_img": "MB/img",
}
PER_LAYER = {
    **{f"{name}.ms": "ms/img" for name in SPANS},
    "cli.self.ms": "ms/img",
    "pst.read_pst.mb": "MB/img",
    "pst.write_pst.mb": "MB/img",
    "scoring.confidence.calls": "calls/img",
    "assignment.matching_cost.calls": "calls/img",
    "assignment.cost_entries_per_pair": "entries/pair",
    "merging.painted_frac": "ratio",
    "trace.overhead_ms": "ms/img",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}

SETUP_REPS = 3
SETUP_TIMEOUT_S = 120
ROOT_SPAN = "cli"


class SetupError(RuntimeError):
    """The set-up child failed; the run cannot measure anything."""


@dataclass
class Op:
    """One operation's calls: argv per image, timings and output digests."""

    name: str
    argv: dict[str, list[str]]
    output: dict[str, Path]
    times: dict[str, list[float]] = field(default_factory=dict)
    calls: dict[str, list[tuple[int, str | None]]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)

    @property
    def images(self) -> list[str]:
        return list(self.argv)

    def passes(self) -> int:
        return min(len(t) for t in self.times.values())

    def throughput(self) -> float:
        """Images per second of call time over all untraced calls."""
        seconds = sum(sum(t) for t in self.times.values())
        return sum(len(t) for t in self.times.values()) / seconds

    def traced_ms(self) -> float:
        """Mean traced call time per image."""
        return 1e3 * sum(self.traced_s) / len(self.traced_s)

    def median_ms(self) -> float:
        total = sum(statistics.median(t) for t in self.times.values())
        return 1e3 * total / len(self.argv)


def _digest(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha1()
    for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def call_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, float, str]:
    """(exit code, seconds, captured output) of one in-process CLI call; an
    exception escaping main counts as exit code -1."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        root = tracer.span(ROOT_SPAN) if tracer else nullcontext()
        start = perf_counter()
        try:
            with root:
                rc = panokit.cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc()
            rc = -1
        seconds = perf_counter() - start
    return rc, seconds, sink.getvalue()


def build_ops(workload: Workload, in_dir: Path, out_dir: Path) -> list[Op]:
    images = [image_id(i) for i in range(workload.images)]
    ops = []
    for name in OPS:
        argv, output = {}, {}
        for image in images:
            src, out = in_dir / image, out_dir / image
            if name in STRATEGIES:
                output[image] = out / STRATEGIES[name]
                args = ["merge", "--in", src, "--strategy", STRATEGIES[name]]
            elif name in ("eval", "stats"):
                output[image] = out / f"{name}.json"
                args = [name, "--pred", out / "maskwise", "--gt", src / "gt"]
            elif name == "assign":
                output[image] = out / "assign.json"
                args = ["assign", "--pred", src, "--gt", src / "gt"]
            else:
                output[image] = out / "fuse.pst"
                args = ["fuse", "--attn", src / "tokens.pst",
                        "--height", workload.height, "--width", workload.width,
                        "--seed-head", FUSE_HEAD_SEED]
            argv[image] = [str(a) for a in (*args, "--out", output[image])]
        times, calls = {i: [] for i in images}, {i: [] for i in images}
        ops.append(Op(name, argv, output, times, calls))
    return ops


def run_call(op: Op, image: str, tracer: Tracer | None, timed: bool = True) -> float:
    """One call of op on image; returns its seconds. Every call's exit code
    and output are kept for the checks; an untimed call's seconds are not
    kept."""
    if tracer:
        tracer.set_label(op.name)
        tracer.install()
    try:
        rc, seconds, text = call_cli(op.argv[image], tracer)
    finally:
        if tracer:
            tracer.uninstall()
    op.calls[image].append((rc, _digest(op.output[image])))
    if rc != 0 and len(op.errors) < 3:
        op.errors.append(f"{op.name} {image}: exit {rc}: {text.strip()[-400:]}")
    if timed:
        (op.traced_s if tracer else op.times[image]).append(seconds)
    return seconds


def measure(ops: list[Op], seconds: float, tracer: Tracer | None) -> None:
    """Interleave single calls. Each step runs the next image of the op
    that has used the least call time, so every op gets a seconds /
    len(ops) share and its calls are spread evenly over the run. An op
    stops at the end of a pass, over all its images, once it has used its
    share. With a tracer, each untraced call is followed by a traced call
    of the same image, and the share covers both.

    First an untimed warm-up pass runs every op in OPS order, which also
    writes the mask-wise maps that eval and stats read."""
    for op in ops:
        for image in op.images:
            run_call(op, image, None, timed=False)
    share = seconds / len(ops)
    spent = {op.name: 0.0 for op in ops}
    cursor = {op.name: 0 for op in ops}
    active = list(ops)
    while active:
        op = min(active, key=lambda o: spent[o.name])
        image = op.images[cursor[op.name]]
        spent[op.name] += run_call(op, image, None)
        if tracer:
            spent[op.name] += run_call(op, image, tracer)
        cursor[op.name] = (cursor[op.name] + 1) % len(op.images)
        if cursor[op.name] == 0 and spent[op.name] >= share:
            active.remove(op)


def run_setup(workload: Workload, seed: int, in_dir: Path, trace: bool) -> dict:
    """Fresh inputs from a set-up child; returns its JSON report."""
    shutil.rmtree(in_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "setup_inputs.py"), "--spec", workload.to_json(),
           "--seed", str(seed), "--out", str(in_dir)]
    try:
        proc = subprocess.run(
            cmd + (["--trace"] if trace else []),
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"set-up took over {SETUP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        detail = proc.stderr.strip()[-2000:]
        raise SetupError(f"set-up exited {proc.returncode}: {detail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stack_set_bytes(in_dir: Path) -> int:
    """Bytes of the stack sets only: manifests, taxonomies, masks, probs."""
    return sum(
        f.stat().st_size
        for f in in_dir.rglob("*")
        if f.is_file() and f.name != "tokens.pst" and f.parent.name != "gt"
    )


def check_outputs(
    ops: list[Op], workload: Workload, in_dir: Path, out_dir: Path
) -> tuple[int, list[str]]:
    """Check each op's final output per image. A failed check fails every
    call on that image; otherwise a call fails on a non-zero exit or an
    output that differs from the checked one. Returns (failed calls,
    messages)."""
    first = image_id(0)
    failed, messages = 0, []
    for op in ops:
        messages += op.errors
        for image in op.images:
            src, out, output = in_dir / image, out_dir / image, op.output[image]
            if op.name in STRATEGIES:
                problem = checks.panoptic_set(output, image)
                if op.name == "merge" and image == first and problem is None:
                    problem = checks.oracle(src, output, image)
            elif op.name in ("eval", "stats"):
                check = checks.eval_report if op.name == "eval" else checks.stats_report
                problem = check(output, out / "maskwise", src / "gt", image)
            elif op.name == "assign":
                rebuild = image == first
                problem = checks.assign_report(output, src, src / "gt", image, rebuild)
            else:
                problem = checks.fuse_output(
                    output, TOKEN_QUERIES, workload.height, workload.width
                )
            final = _digest(output)
            calls = op.calls[image]
            if problem:
                bad = len(calls)
            else:
                bad = sum(rc != 0 or d != final for rc, d in calls)
            failed += bad
            if problem:
                messages.append(f"{op.name} {image}: {problem}")
            elif bad:
                messages.append(
                    f"{op.name} {image}: {bad} call(s) exited non-zero or wrote "
                    "an output other than the checked one"
                )
    return failed, messages


def check_reference(workload: Workload, ref_dir: Path) -> tuple[int, int, list[str]]:
    """Merge the REFERENCE_SEED scene with every strategy and evaluate it
    through the CLI; each PQ must equal the value recorded for the workload.
    Returns (attempted calls, failed calls, messages)."""
    from panokit import synth

    image = image_id(0)
    src = ref_dir / image
    gt, stack = synth.generate_scene(workload.scene_params(REFERENCE_SEED))
    write_image(src, image, gt, stack, None)
    attempted, failed, messages = 0, 0, []
    for strategy in STRATEGIES.values():
        pred, report = ref_dir / strategy, ref_dir / f"{strategy}.json"
        for argv in (
            ["merge", "--in", str(src), "--out", str(pred), "--strategy", strategy],
            ["eval", "--pred", str(pred), "--gt", str(src / "gt"),
             "--out", str(report)],
        ):
            attempted += 1
            rc, _, text = call_cli(argv)
            if rc != 0:
                failed += 1
                detail = text.strip()[-400:]
                messages.append(f"reference {strategy}: exit {rc}: {detail}")
        if strategy not in workload.reference_pq:
            problem = "no recorded PQ"
        else:
            problem = checks.reference_pq(report, workload.reference_pq[strategy])
        if problem:
            failed += 1
            messages.append(f"reference {strategy}: {problem}")
    return attempted, failed, messages


def environment(in_dir: Path) -> dict:
    """Versions, CPU and caches, and the input set's size against L3."""
    import numpy
    import scipy

    caches, l3_bytes = {}, None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
        if level == "3" and size.endswith("K"):
            l3_bytes = int(size[:-1]) * 1024
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    input_bytes = sum(f.stat().st_size for f in in_dir.rglob("*") if f.is_file())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "input_set_mb": input_bytes / 1e6,
        "input_set_over_l3": input_bytes / l3_bytes if l3_bytes else None,
    }


def end_to_end_metrics(ops: list[Op], setups: list[dict], peak_rss: int,
                       stack_bytes: int, workload: Workload) -> dict[str, float]:
    metrics = {f"{op.name}_img_per_s": op.throughput() for op in ops}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics["peak_rss_mb"] = peak_rss / 1e6
    metrics["stack_set_mb_per_img"] = stack_bytes / 1e6 / workload.images
    return metrics


def per_layer_metrics(ops: list[Op], tracer: Tracer, setup: dict,
                      workload: Workload, failed_frac: float) -> dict[str, float]:
    """Per image, for one set-up plus one call of every operation: set-up
    totals over the workload's images, plus each operation's traced totals
    over its traced calls."""
    calls = {op.name: len(op.traced_s) for op in ops}
    self_s = {name: s / workload.images for name, s in setup["self_s"].items()}
    counts = {key: n / workload.images for key, n in setup["counts"].items()}
    for (label, name), seconds in tracer.self_times().items():
        self_s[name] = self_s.get(name, 0.0) + seconds / calls[label]
    for (label, key), amount in tracer.counts.items():
        counts[key] = counts.get(key, 0.0) + amount / calls[label]
    metrics = {f"{name}.ms": 1e3 * self_s.get(name, 0.0) for name in SPANS}
    metrics["cli.self.ms"] = 1e3 * self_s[ROOT_SPAN]
    metrics["pst.read_pst.mb"] = counts["pst.read_pst.bytes"] / 1e6
    metrics["pst.write_pst.mb"] = counts["pst.write_pst.bytes"] / 1e6
    for key in ("scoring.confidence.calls", "assignment.matching_cost.calls"):
        metrics[key] = counts[key]
    metrics["assignment.cost_entries_per_pair"] = (
        counts["assignment.cost_entries"] / counts["assignment.pairs"]
    )
    metrics["merging.painted_frac"] = (
        counts["merging.segments_painted"] / counts["merging.masks_offered"]
    )
    untraced = sum(1e3 / op.throughput() for op in ops)
    traced = sum(op.traced_ms() for op in ops)
    metrics["trace.overhead_ms"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics["failed_frac"] = failed_frac
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-{os.getpid()}"
    in_dir, out_dir = work / "in", work / "out"
    try:
        setups = [run_setup(workload, seed, in_dir, trace)
                  for _ in range(1 if trace else SETUP_REPS)]
        env = environment(in_dir)
        stack_bytes = stack_set_bytes(in_dir)
        ops = build_ops(workload, in_dir, out_dir)
        tracer = Tracer() if trace else None
        measure(ops, seconds, tracer)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        failed, messages = check_outputs(ops, workload, in_dir, out_dir)
        ref_attempted, ref_failed, ref_messages = check_reference(
            workload, work / "ref"
        )
        attempted = ref_attempted + sum(len(c) for op in ops for c in op.calls.values())
        failed += ref_failed
        messages += ref_messages
        if trace:
            metrics = per_layer_metrics(
                ops, tracer, setups[0], workload, failed / attempted
            )
            tracer.write(WORK / f"{workload.name}-spans.json")
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(ops, setups, peak_rss, stack_bytes, workload)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "ops": {
            op.name: {
                "images": len(op.images),
                "passes": op.passes(),
                "traced_passes": len(op.traced_s) // len(op.images),
                "mean_ms_per_img": 1e3 / op.throughput(),
                "median_ms_per_img": op.median_ms(),
                "call_ms": {i: [1e3 * t for t in ts] for i, ts in op.times.items()},
            }
            for op in ops
        },
        "setup_s": [s["setup_s"] for s in setups],
        "failures": messages,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }
    path = WORK / f"{workload.name}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2))
    return report


def format_report(report: dict) -> str:
    env = report["env"]
    result = report["result"]
    ratio = env["input_set_over_l3"]
    lines = [
        f"panokit benchmark: workload {report['workload']}, seed {report['seed']}, "
        f"{report['seconds']} s, trace {report['trace']}",
        f"env: Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, {env['cpu']}",
        "caches: " + ", ".join(f"{k} {v}" for k, v in env["caches"].items()),
        f"input set: {env['input_set_mb']:.1f} MB"
        + (f" = {ratio:.2f} x L3" if ratio else ""),
        f"{'operation':<18}{'images':>7}{'passes':>8}{'traced':>8}"
        f"{'mean ms/img':>13}{'median ms/img':>15}",
    ]
    for name, op in report["ops"].items():
        lines.append(f"{name:<18}{op['images']:>7}{op['passes']:>8}"
                     f"{op['traced_passes']:>8}{op['mean_ms_per_img']:>13.2f}"
                     f"{op['median_ms_per_img']:>15.2f}")
    lines.append(f"{'metric':<38}{'value':>14}  unit")
    for name, m in result["metrics"].items():
        lines.append(f"{name:<38}{m['value']:>14.6g}  {m['unit']}")
    lines.append(
        f"attempted {result['attempted']}, failed {result['failed']} "
        f"(failed_frac {result['failed'] / result['attempted']:.6g})"
    )
    lines += [f"FAILED {m}" for m in report["failures"]]
    return "\n".join(lines)
