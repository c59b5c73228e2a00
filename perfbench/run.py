"""memkern benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and nothing outside that tree is read or written.  One process
runs the workload as a closed loop with one client: each operation starts
when the previous one has finished.  It repeats passes of the workload, each
drawing fresh inputs from ``(seed, pass index)``, while one more pass brings
the loop's length nearer to ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics, its times scaled to a
reference machine speed by calibration bursts run alongside (calib.py);
``--trace 1`` reports the per-layer metrics of a traced run, in wall-clock
seconds (see README.md).  The names and units come from
BENCHMARK.json.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; exit code 0 means a
result was printed, anything else means the benchmark could not run.
"""

import os

# One OpenBLAS thread, the single-threaded baseline.  Set before numpy is
# imported; the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ARTIFACTS = ROOT / ".perfbench"
SETUP_PROBES = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_contract() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_memkern() -> None:
    """Import memkern from this checkout's ``src/`` and nowhere else."""
    package = SRC / "memkern"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no memkern source tree at {package}")
    sys.path.insert(0, str(SRC))
    import memkern

    if Path(memkern.__file__).resolve().parent != package.resolve():
        raise BenchError(f"memkern imported from {memkern.__file__}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "memkern").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def probe_seconds(command: list[str]) -> float:
    """Start ``command`` and time it until it prints its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe {command[1:]} failed")
    return seconds


def setup_seconds(config: dict, workdir: Path) -> tuple[list, list]:
    """Seconds from a fresh interpreter to memkern imported and the config
    parsed, and of the import reference probed after each (see calib.py)."""
    from calib import IMPORT_REFERENCE

    path = workdir / "setup-config.json"
    with open(path, "w") as fh:
        json.dump(config, fh)
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
               str(path)]
    setup, reference = [], []
    for _ in range(SETUP_PROBES):
        setup.append(probe_seconds(command))
        reference.append(probe_seconds([sys.executable, "-c",
                                        IMPORT_REFERENCE]))
    return setup, reference


class Ledger:
    """SHA-256 of every CSV an op writes, compared with earlier runs.

    Runs of the same program source on the same config must write
    byte-identical CSVs; a differing digest fails the op that wrote it.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.is_file() else {}
        self.files = self.compared = self.differ = 0

    def compare(self, digests: dict) -> list[str]:
        problems = []
        for key, digest in digests.items():
            self.files += 1
            old = self.known.get(key)
            if old is None:
                self.known[key] = digest
                continue
            self.compared += 1
            if old != digest:
                self.differ += 1
                problems.append(f"{key} differs from an earlier run")
        return problems

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.known, indent=0, sort_keys=True))


def run_passes(make_pass, seed, seconds, clock, workdir, ledger) -> dict:
    """Closed loop over passes.

    Returns the ``(start, end)`` interval of each pass, and per counted op
    its intervals and problems; turning intervals into seconds is left to
    the caller, which may take calibration bursts out of them.
    """
    import workloads

    walls, records, by_label, spent = [], [], {}, []
    start = time.perf_counter()
    index = 0
    # another pass while it ends the loop nearer to ``seconds`` than stopping
    while index == 0 or (time.perf_counter() - start
                         + statistics.median(spent) / 2 < seconds):
        iteration_start = time.perf_counter()
        ops = make_pass(seed, index, workdir)
        pass_start = time.perf_counter()
        timed = []
        for op in ops:
            clock.op = f"{index}/{op.label}"
            op_start = time.perf_counter()
            try:
                op.execute(clock)
                problems = []
            except Exception as exc:  # noqa: BLE001 - an op failure is data
                problems = [f"raised {exc!r}"]
            timed.append((op, (op_start, time.perf_counter()), problems))
            by_label.setdefault(op.label, []).append(timed[-1][1])
        clock.op = None
        walls.append((pass_start, time.perf_counter()))
        for op, interval, problems in timed:
            clock.counters["cli.bytes_written"] += sum(
                path.stat().st_size for path in op.outputs())
            try:
                problems = problems + ledger.compare(op.csv_digests())
                records += op.records(interval, clock, problems)
            except Exception as exc:  # noqa: BLE001 - a check failure is data
                records += [([part], [f"check raised {exc!r}"])
                            for part in workloads.split(interval,
                                                        op.n_records)]
            op.cleanup()
        spent.append(time.perf_counter() - iteration_start)
        index += 1
    return {"walls": walls, "records": records, "by_label": by_label}


def timings(run, elapsed) -> dict:
    """Seconds of every pass, op and op kind, through ``elapsed(start, end)``."""
    def seconds(intervals):
        return sum(elapsed(a, b) for a, b in intervals)

    return {"walls": [elapsed(a, b) for a, b in run["walls"]],
            "ops": [seconds(intervals) for intervals, _ in run["records"]],
            "by_label": {label: [elapsed(a, b) for a, b in intervals]
                         for label, intervals in run["by_label"].items()}}


def raw_elapsed(start, end) -> float:
    return end - start


def percentile(sorted_values, share) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload, seed, seconds, workdir, ledger) -> tuple[dict, dict]:
    from calib import REFERENCE_BURST_S, REFERENCE_IMPORT_S, Calibrator
    from spans import OP_CLOCK_TARGETS, Tracer
    import workloads

    make_pass = workloads.WORKLOADS[workload]
    setup, reference = setup_seconds(make_pass(seed, 0, workdir)[0].config,
                                     workdir)
    calibrator = Calibrator()
    with Tracer() as clock:
        clock.install(OP_CLOCK_TARGETS)
        first = time.perf_counter()
        with calibrator:
            run = run_passes(make_pass, seed, seconds, clock, workdir, ledger)
        calibrator.finish(first, time.perf_counter())
    sonine, ml_err, problems = workloads.reference_accuracy(seed)
    timed = timings(run, calibrator.elapsed)
    raw = timings(run, lambda a, b: calibrator.elapsed(a, b, scaled=False))
    times, raw_times = sorted(timed["ops"]), sorted(raw["ops"])
    failed = sum(1 for _, problems in run["records"] if problems)
    attempted = len(run["records"])
    values = {
        "setup_s": statistics.median(setup) * REFERENCE_IMPORT_S
        / statistics.median(reference),
        "wall_s": statistics.median(timed["walls"]),
        "op_p50_s": statistics.median(times),
        "op_p95_s": percentile(times, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
        "sonine_residual": sonine,
        "ml_abs_err": ml_err,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; "
                   f"{statistics.median(setup):.6g} s unscaled, import "
                   f"reference {statistics.median(reference):.6g} s",
        "wall_s": f"median of {len(run['walls'])} passes, "
                  f"{attempted // len(run['walls'])} ops each; "
                  f"{statistics.median(raw['walls']):.6g} s unscaled",
        "op_p50_s": f"{attempted} ops; "
                    f"{statistics.median(raw_times):.6g} s unscaled",
        "op_p95_s": f"{attempted} ops, nearest rank; "
                    f"{percentile(raw_times, 0.95):.6g} s unscaled",
        "peak_rss_mb": "workload process",
        "ok_ratio": f"{attempted - failed} of {attempted} ops passed their "
                    f"checks; fail_ratio {failed / attempted:.4g}",
        "sonine_residual": "max|k*l - 1| on t >= 10 tau, certify pass-0 "
                           "measures, N=2048",
        "ml_abs_err": "|u(1) - E_a(-1)|, long_history pass-0 relaxation, "
                      "N=32768",
    }
    cal = calibrator.summary()
    about = (f"tracing off; times in reference seconds, scaled by "
             f"{cal['bursts']} calibration bursts (median "
             f"{cal['burst_median_s'] * 1e3:.4g} ms, reference "
             f"{REFERENCE_BURST_S * 1e3:.4g} ms; see calib.py)")
    return values, {"about": about, "notes": notes, "run": run,
                    "timed": timed, "problems": problems}


def per_layer(workload, seed, seconds, workdir, ledger) -> tuple[dict, dict]:
    from spans import COUNTERS, OP_CLOCK_TARGETS, TARGETS, Tracer
    import workloads

    make_pass = workloads.WORKLOADS[workload]
    with Tracer() as clock:
        clock.install(OP_CLOCK_TARGETS)
        reference = run_passes(make_pass, seed, 0, clock, workdir, ledger)
    tracer = Tracer()
    with tracer:
        tracer.install(TARGETS)
        run = run_passes(make_pass, seed, seconds, tracer, workdir, ledger)
    n = len(run["walls"])
    timed = timings(run, raw_elapsed)
    untraced = timings(reference, raw_elapsed)["walls"][0]
    stats = tracer.stats()
    values = {name: tracer.counters[name] / n for name in COUNTERS}
    for _owner, _attr, name, _prepare in TARGETS:
        entry = stats.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.self_s"] = entry["self_s"] / n
        values[f"{name}.calls"] = entry["calls"] / n
    inverted = tracer.counters["kernels.inversion.times"]
    values["kernels.inversion.unique_ratio"] = (
        len(tracer.inversion_keys) / inverted if inverted else 1.0)
    values["trace.overhead_ratio"] = timed["walls"][0] / untraced - 1
    values["trace.coverage"] = tracer.top_level_seconds() / sum(timed["walls"])
    tracer.write(ARTIFACTS / f"trace-{workload}-s{seed}.json", extra={
        "workload": workload, "seed": seed, "pass_walls": timed["walls"],
        "untraced_pass_wall": untraced})
    run["records"] += reference["records"]
    about = (f"per traced pass, mean of {n} passes after 1 untraced pass; "
             f"spans in .perfbench/trace-{workload}-s{seed}.json; "
             f"wall-clock seconds, not scaled")
    return values, {"about": about, "notes": {}, "run": run, "timed": timed,
                    "problems": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
        import_memkern()
        sys.path.insert(0, str(BENCH_DIR))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        wanted = contract["per_layer" if args.trace else "end_to_end"]
        ARTIFACTS.mkdir(exist_ok=True)
        ledger = Ledger(ARTIFACTS / "csv-sha256" / f"{source_digest()}.json")
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ARTIFACTS))
        try:
            measure = per_layer if args.trace else end_to_end
            values, info = measure(args.workload, args.seed, args.seconds,
                                   workdir, ledger)
            edges = workloads.edge_orders(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ledger.save()
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    records = info["run"]["records"]
    failed = sum(1 for _, problems in records if problems)
    print(f"memkern benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  closed loop, one client, OPENBLAS_NUM_THREADS="
          f"{os.environ['OPENBLAS_NUM_THREADS']}; "
          f"{len(info['run']['walls'])} passes, {len(records)} ops, "
          f"{failed} failed; {info['about']}")
    for metric in wanted:
        name = metric["name"]
        print(f"  {name:36s} {values[name]:<13.6g} {metric['unit']:6s}"
              f"{info['notes'].get(name, '')}")
    print("  op wall by kind (median s x count): " + ", ".join(
        f"{label} {statistics.median(times):.4g} x {len(times)}"
        for label, times in info["timed"]["by_label"].items()))
    for _intervals, problems in records:
        if problems:
            print(f"  failed op: {'; '.join(problems)}")
            break
    for problem in info["problems"]:
        print(f"  failed check: {problem}")
    for name, outcome in edges.items():
        print(f"  edge_orders {name}: {outcome}")
    print(f"  csv_sha256: {ledger.files} files, {ledger.compared} compared "
          f"with an earlier run of the same source and config, "
          f"{ledger.differ} differ")
    result = {
        "correct": failed == 0 and not info["problems"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
