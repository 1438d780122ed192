"""Benchmark of the polysl2 command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 0 --seconds 25 --trace 0

Each invocation of the CLI runs in a fresh interpreter (perfbench/child.py),
because every shell user pays the cold start: the import and the empty
coefficient caches.  Load is a closed loop with one client: the next
invocation starts only after the previous one exited, until --seconds have
passed.  BLAS runs one thread (see BLAS_THREADS).

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb).
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics from spans recorded around the library's module-level
functions (perfbench/tracer.py); end-to-end numbers never come from traced
invocations.  Every invocation's outputs are checked (perfbench/checker.py)
and must be byte-identical to the first's; failures are counted, and the
last stdout line is the JSON result.  ``--workload all`` runs every
workload in turn and prints one result line each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5  # import-only interpreters per run, besides each invocation's
BUDGET_S = 165.0  # a run must finish within 180 s; no invocation starts past it
# One BLAS thread (at most nproc is allowed): on 2 cores, a second thread did
# not shorten collapse invocations, used ~1.5x their CPU time and spread
# their wall time over 3.1-4.6 s, against 3.5-3.9 s with one thread.
BLAS_THREADS = 1

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# spans whose call count and/or inclusive seconds are reported
SPAN_FIELDS = {
    "three_boson.enumerate_blocks": ("calls", "s"),
    "three_boson.project_coherent": ("calls", "s"),
    "three_boson.build_model_block": ("calls", "s"),
    "solver.build_hamiltonian": ("calls", "s"),
    "solver.eigensolve": ("calls", "s"),
    "solver.sl2_reference_spectrum": ("s",),
    "variational.variational_spectrum": ("calls", "s"),
    "variational.solve_alpha": ("calls", "s"),
    "variational.energy_functional": ("calls", "s"),
    "dynamics.rabi_signal": ("s", "self_s"),
    "dynamics.evolve_grid": ("calls", "s"),
    "dynamics.detect_collapse_revival": ("s",),
    "dynamics.incommensurability_measure": ("s",),
    "dynamics.meanfield_trajectory": ("s",),
    "cli.load_config": ("s",),
}
# per-call probe counters (tracer.BOUNDARIES), keyed "<span>.<counter>"
COUNTERS = {
    "solver.eigensolve.dim_sum": "count",
    "variational.variational_spectrum.s.d_le_11": "s",
    "variational.variational_spectrum.s.d_ge_31": "s",
    "variational.solve_alpha.roots_found": "count",
    "dynamics.evolve_grid.flops_computed": "flop",
    "dynamics.evolve_grid.bytes_computed": "B",
}
# values read from the outputs by the checker; 0 where a workload has none
HEALTH = {
    "three_boson.blocks_kept": "count",
    "three_boson.tail_deficit": "ratio",
    "solver.oracle_rel_dev_max": "ratio",
    "variational.energy_norm_ratio_max": "ratio",
    "dynamics.meanfield_trajectory.steps": "count",
    "dynamics.meanfield_energy_drift_rel": "ratio",
}
DERIVED = {
    "three_boson.project_useful_ratio": "ratio",
    "dynamics.meanfield_trajectory.us_per_step": "us",
    "cli.write_outputs.s": "s",
    "cli.output_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
DERIVED_FROM = {
    "three_boson.project_useful_ratio": {"three_boson.project_coherent"},
    "dynamics.meanfield_trajectory.us_per_step": {"dynamics.meanfield_trajectory"},
    "cli.write_outputs.s": {"cli.write_csv", "cli.write_json"},
    "cli.self_s": {"cli.main"},
}
PER_LAYER = {
    **{
        f"{span}.{field}": ("count" if field == "calls" else "s")
        for span, fields in SPAN_FIELDS.items()
        for field in fields
    },
    **COUNTERS,
    **HEALTH,
    **DERIVED,
}


class Fatal(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    if not cpu:
        try:
            with open("/proc/cpuinfo") as fh:
                cpu = next(
                    (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                    "",
                )
        except OSError:
            cpu = ""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    src_hash = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src_hash.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


class Runner:
    """One benchmark run of one workload: its work dir, clock and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.w, self.cfg = workloads.make(workload, seed)
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.dir = WORK / workload
        self.config = self.dir / "config.json"
        self.t0 = time.perf_counter()
        self.env = child_env()
        self.n = 0
        self.reference = None  # output digests of the first checked invocation
        self.health = {}
        self.failures = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def spawn(self, tag: str, opts: list, cli_args: list) -> dict | None:
        """Run child.py once; its result dict, or None if it died or hung."""
        result = self.dir / f"result_{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), *opts, "--", *cli_args]
        timeout = max(5.0, BUDGET_S + 10.0 - self.elapsed())
        with open(self.dir / f"log_{tag}.txt", "w") as log:
            try:
                proc = subprocess.run(
                    cmd, env=self.env, cwd=ROOT, stdout=log, stderr=log, timeout=timeout
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result.is_file():
            return None
        return json.loads(result.read_text())

    def tag(self) -> str:
        self.n += 1
        return f"{self.n:03d}"

    def import_once(self) -> float:
        res = self.spawn(self.tag(), ["--import-only"], [])
        if res is None:
            raise Fatal(f"cannot import polysl2.cli from {SRC}; see {self.dir}")
        module = Path(res["module_file"]).resolve()
        if SRC.resolve() not in module.parents:
            raise Fatal(f"polysl2 imported from {module}, not from {SRC}")
        return res["import_s"]

    def invoke(self, traced: bool) -> dict:
        """One CLI invocation; its sample with 'ok' set after the output checks."""
        import checker

        tag = self.tag()
        out = self.dir / f"out_{tag}"
        spans = self.dir / f"spans_{tag}.json"
        opts = ["--trace", str(spans)] if traced else []
        cli_args = [self.w.command, "--config", str(self.config), "--out", str(out)]
        res = self.spawn(tag, opts, cli_args)
        sample = {"traced": traced, "ok": False, "spans": spans}
        if res is None:
            self.failures.append("invocation crashed or timed out")
            return sample
        sample.update(res)
        if res["exit"] != 0 or res["error"]:
            self.failures.append(f"exit {res['exit']}: {res['error']}")
            return sample

        digests = checker.output_digests(out)
        if self.reference is None:
            try:
                self.health = checker.check(self.w.name, self.cfg, self.config, out, self.seed)
            except (checker.CheckFailure, KeyError, IndexError, TypeError, ValueError) as exc:
                self.failures.append(f"check failed: {exc!r}")
                return sample
            self.reference = digests
        elif digests != self.reference:
            self.failures.append("outputs differ from the first invocation's")
            return sample
        sample["ok"] = True
        sample["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        return sample

    def run(self) -> tuple[list, list]:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config.write_text(json.dumps(self.cfg, indent=1, sort_keys=True) + "\n")
        self.import_once()  # warm-up: byte-compiles src on a fresh checkout
        setup = [] if self.trace else [self.import_once() for _ in range(SETUP_REPEATS)]
        # closed loop: the next round starts only if the last round's
        # duration says it will end inside the measuring window
        samples = []
        start = time.perf_counter()
        last = 0.0
        while not samples or (
            time.perf_counter() - start + last <= self.seconds
            and self.elapsed() + last < BUDGET_S
        ):
            t = time.perf_counter()
            samples.append(self.invoke(traced=False))
            if self.trace:
                samples.append(self.invoke(traced=True))
            last = time.perf_counter() - t
        return setup, samples


def _median(xs):
    return statistics.median(xs) if xs else None


def end_to_end(setup: list, samples: list) -> dict:
    plain = [s for s in samples if not s["traced"]]
    return {
        "setup_s": _median(setup + [s["import_s"] for s in samples if "import_s" in s]),
        "wall_s": _median([s["wall_s"] for s in plain if s["ok"]]),
        "peak_rss_mb": _median([s["maxrss_kb"] / 1024.0 for s in plain if s["ok"]]),
    }


def per_layer(samples: list, health: dict) -> tuple[dict, list]:
    """Per-layer metrics (medians over traced invocations) and absent spans."""
    import tracer

    traced = [s for s in samples if s["traced"] and s["ok"]]
    plain = [s for s in samples if not s["traced"] and s["ok"]]
    if not traced or not plain:
        return {}, []
    per_inv = []
    absent = set()
    for s in traced:
        rec = json.loads(s["spans"].read_text())
        absent.update(rec["absent"])
        summ = tracer.summarize(rec)
        m = {}
        for span, fields in SPAN_FIELDS.items():
            for field in fields:
                m[f"{span}.{field}"] = summ.get(span, {}).get(field, 0)
        for key in COUNTERS:
            m[key] = rec["counters"].get(key, 0)
        for key in HEALTH:
            m[key] = health.get(key, 0)
        proj = m["three_boson.project_coherent.calls"]
        m["three_boson.project_useful_ratio"] = (
            m["three_boson.blocks_kept"] / proj if proj else 0.0
        )
        steps = m["dynamics.meanfield_trajectory.steps"]
        m["dynamics.meanfield_trajectory.us_per_step"] = (
            1e6 * m["dynamics.meanfield_trajectory.s"] / steps if steps else 0.0
        )
        m["cli.write_outputs.s"] = sum(
            summ.get(n, {}).get("s", 0.0) for n in ("cli.write_csv", "cli.write_json")
        )
        m["cli.output_bytes"] = s["output_bytes"]
        m["cli.self_s"] = summ.get("cli.main", {}).get("self_s", 0.0)
        per_inv.append(m)
    out = {k: statistics.median(m[k] for m in per_inv) for k in per_inv[0]}
    out["trace.overhead_s"] = statistics.median(
        s["wall_s"] for s in traced
    ) - statistics.median(s["wall_s"] for s in plain)
    # a metric is absent when any span it is computed from is absent
    spans_of = {k: {s for s in SPAN_FIELDS if k.startswith(s + ".")} for k in out}
    spans_of.update(DERIVED_FROM)
    kept = {k: v for k, v in out.items() if not spans_of.get(k, set()) & absent}
    return kept, sorted(absent)


def run_one(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    runner = Runner(name, seed, seconds, trace)
    setup, samples = runner.run()
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    if trace:
        values, absent = per_layer(samples, runner.health)
        units = PER_LAYER
    else:
        values, absent = end_to_end(setup, samples), []
        units = END_TO_END
    metrics = {
        k: {"value": values[k], "unit": units[k]}
        for k in units
        if values.get(k) is not None
    }
    n_plain = sum(1 for s in samples if not s["traced"] and s["ok"])
    record = {
        "workload": name,
        "why": runner.w.why,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failures": runner.failures,
        "absent_layers": absent,
        "samples": {
            "setup_s": len(setup) + sum(1 for s in samples if "import_s" in s),
            "wall_s": n_plain,
        },
        "metrics": metrics,
    }
    (WORK / f"record_{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    for msg in runner.failures:
        print(f"{name}: FAILED {msg}", file=sys.stderr)
    print(_summary_line(record))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _summary_line(rec: dict) -> str:
    parts = [f"{rec['workload']} (seed {rec['seed']}, trace {int(rec['trace'])}):"]
    if not rec["trace"]:
        for name, n in (("setup_s", rec["samples"]["setup_s"]),
                        ("wall_s", rec["samples"]["wall_s"]),
                        ("peak_rss_mb", rec["samples"]["wall_s"])):
            m = rec["metrics"].get(name)
            val = f"{m['value']:.4f} {m['unit']}" if m else "n/a"
            parts.append(f"{name} {val} (n={n})")
    else:
        parts.append(f"{len(rec['metrics'])} per-layer metrics")
        if rec["absent_layers"]:
            parts.append(f"absent layers: {', '.join(rec['absent_layers'])}")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else float("nan")
    parts.append(f"failed_frac {frac:.3f} ratio ({rec['failed']}/{rec['attempted']})")
    return "  ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "polysl2" / "cli.py").is_file():
        print(f"error: {SRC / 'polysl2'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checker imports the library under test
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        env = environment()
        for name in names:
            result = run_one(name, args.seed, args.seconds, bool(args.trace), env)
            print("environment " + json.dumps(env, sort_keys=True))
            print(json.dumps(result), flush=True)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
