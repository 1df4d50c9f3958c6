"""keywarp benchmark: play-loop throughput and latency, demo-library build
rate, and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload play-noiseless --seed 0 --seconds 10 --trace 0

Workloads (see bench/README.md for why each exists):

- play-noiseless  the acceptance noiseless config (sigma 0, no outliers, p_tip 0)
- play-degraded   the acceptance degraded config (sigma 2 px, 5 % outliers, p_tip 0.05)
- demo-library    libraries of one demo per task: generate, save, load, register; no matching

Every workload first sets up 4 libraries derived from the seed (10 demos
per task x 6 tasks each: generate, save, load, register), four times over;
play workloads also start one PlaySession per library. The play loop is a closed loop with
one caller that advances the sessions in turn: the next `run` call starts
only after the previous one returns. After the timed phase the first 200
operations are replayed from a fresh set-up with the same seed, and the
replay's artifacts must be byte-identical. With `--trace 1` the replay runs
with every layer boundary wrapped in a span and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if not (SRC / "keywarp" / "__init__.py").is_file():
    sys.exit(f"error: keywarp sources not found under {SRC}; "
             "run the benchmark from a checkout of the repository")
sys.path.insert(0, str(SRC))   # the checkout's sources, never an installed copy

from keywarp import correspondence, demo, play, sim   # noqa: E402
from keywarp.tasks import builtin_tasks                # noqa: E402

PLAY_CONFIGS = {
    "play-noiseless": dict(pixel_noise_sigma=0.0, outlier_rate=0.0, p_tip=0.0),
    "play-degraded": dict(pixel_noise_sigma=2.0, outlier_rate=0.05, p_tip=0.05),
}
WORKLOADS = tuple(PLAY_CONFIGS) + ("demo-library",)
K = 3


@dataclass(frozen=True)
class Sizes:
    demos_per_task: int = 10   # each library: 10 demos x 6 tasks
    libraries: int = 4         # libraries per run (one play session each), from sub-seeds
    setup_repeats: int = 4     # set-ups before timing; play adds the replay's set-up
    prefix: int = 500          # operations covered by success_rate, peak_rss_mb and the digest
    replay: int = 200          # operations replayed from a fresh set-up (traced with --trace 1)


# ---------------------------------------------------------------------------
# tracing

RAISED = "raised"


class Tracer:
    """Spans recorded in memory by wrapping library functions where their
    callers look them up. A span is [name, start, end, parent index,
    request id, tag]; the tag is a per-call observation such as whether a
    match was feasible, or RAISED."""

    def __init__(self):
        self.spans = []
        self.request = "setup"
        self._stack = []

    def wrap(self, name, fn, tag=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                stack.pop()
                span[5] = RAISED
                raise
            span[2] = perf_counter()
            stack.pop()
            if tag is not None:
                span[5] = tag(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, tag in _traced_boundaries():
                original = owner.__dict__[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self.wrap(name, original.__func__, tag))
                else:
                    wrapped = self.wrap(name, original, tag)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _traced_boundaries():
    """(owner, attribute, span name, tag) for each wrapped call site. A
    function is wrapped in every module that imports it for its own use."""
    steps = lambda a, r: len(r)   # noqa: E731
    return [
        (play.PlaySession, "run_iteration", "play.run_iteration", None),
        (play.PlaySession, "save_checkpoint", "play.save_checkpoint", None),
        (play.PlaySession, "finalize", "play.finalize", None),
        (play.RuleBasedPlanner, "plan", "play.planner_plan", None),
        (play, "sample_target_task", "bandit.sample_target_task", None),
        (play, "select_top_k", "bandit.select_top_k", None),
        (play, "match_demo", "correspondence.match_demo", lambda a, r: r.feasible),
        (play, "warp_trajectory", "warp.warp_trajectory", steps),
        (play, "execute_plan", "sim.execute_plan", lambda a, r: len(r.positions)),
        (play, "verify_by_correspondence", "play.verify_by_correspondence",
         lambda a, r: r[0]),
        (play, "snapshot", "sim.snapshot", None),
        (play, "symbolic_state", "sim.symbolic_state", None),
        (play, "ray_through_pixel", "geometry.ray_through_pixel", None),
        (play, "point_ray_distance", "geometry.point_ray_distance", None),
        (correspondence, "triangulate", "geometry.triangulate", None),
        (correspondence, "ray_through_pixel", "geometry.ray_through_pixel", None),
        (correspondence, "point_ray_distance", "geometry.point_ray_distance", None),
        (sim.CorrespondenceOracle, "match", "sim.oracle_match",
         lambda a, r: r is not None),
        (sim, "project", "geometry.project", None),
        (sim, "execute_plan", "sim.execute_plan", lambda a, r: len(r.positions)),
        (sim, "snapshot", "sim.snapshot", None),
        (sim, "symbolic_state", "sim.symbolic_state", None),
        (sim, "scripted_pick_place", "sim.scripted_pick_place", None),
        (sim, "summarize_demo", "demo.summarize_demo", None),
        (sim.DemoLibrary, "load", "sim.DemoLibrary.load", lambda a, r: len(r.demos)),
        (demo, "project", "geometry.project", None),
        (demo, "save_demo_library", "demo.save_demo_library", lambda a, r: len(a[1])),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans, n_ops):
    """Per-layer numbers from one traced replay of `n_ops` operations.

    Per-operation figures count only spans inside an operation (their
    request id is the operation number), not those of the replay's set-up.
    Self time is a span's duration minus its children's durations.
    """
    n = len(spans)
    self_s = [s[2] - s[1] for s in spans]
    under_match = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= end - start
            under_match[i] = under_match[parent]
        if name == "correspondence.match_demo":
            under_match[i] = True

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def in_op(i):
        return isinstance(spans[i][4], int)

    def sel(name):
        return [i for i in by_name.get(name, []) if in_op(i)]

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def calls(name):
        return per_op(len(sel(name)))

    def self_ms(name):
        return per_op(1e3 * sum(self_s[i] for i in sel(name)))

    def dur(i):
        return spans[i][2] - spans[i][1]

    def p50_us(name):
        return 1e6 * _median([dur(i) for i in sel(name)])

    def ratio(name, pred):
        idx = sel(name)
        return sum(1 for i in idx if pred(spans[i][5])) / len(idx) if idx else 0.0

    def mean_tag(name):
        idx = sel(name)
        return sum(spans[i][5] for i in idx) / len(idx) if idx else 0.0

    iter_total = sum(dur(i) for i in sel("play.run_iteration"))

    def iter_share(name):
        """Inclusive time of the calls made directly by run_iteration."""
        if not iter_total:
            return 0.0
        return sum(dur(i) for i in sel(name)
                   if spans[i][3] >= 0
                   and spans[spans[i][3]][0] == "play.run_iteration") / iter_total

    def ms_per_demo(name, tag_counts=False):
        idx = by_name.get(name, [])
        demos = sum(spans[i][5] for i in idx) if tag_counts else len(idx)
        return 1e3 * sum(dur(i) for i in idx) / demos if demos else 0.0

    execute = sel("sim.execute_plan")
    execute_steps = sum(spans[i][5] for i in execute)
    m = {}
    md = "correspondence.match_demo"
    m[f"{md}.calls_per_iter"] = (calls(md), "calls/iter")
    m[f"{md}.self_ms_per_iter"] = (self_ms(md), "ms/iter")
    m[f"{md}.us_p50"] = (p50_us(md), "us")
    m[f"{md}.feasible_ratio"] = (ratio(md, bool), "ratio")
    m[f"{md}.iter_share"] = (iter_share(md), "ratio")
    m["correspondence.matcher_queries_per_iter"] = (
        per_op(sum(1 for i in sel("sim.oracle_match") if under_match[i])), "calls/iter")
    om = "sim.oracle_match"
    m[f"{om}.calls_per_iter"] = (calls(om), "calls/iter")
    m[f"{om}.self_ms_per_iter"] = (self_ms(om), "ms/iter")
    m[f"{om}.us_p50"] = (p50_us(om), "us")
    m[f"{om}.none_ratio"] = (ratio(om, lambda t: t is False), "ratio")
    for g in ("project", "ray_through_pixel", "triangulate", "point_ray_distance"):
        m[f"geometry.{g}.calls_per_iter"] = (calls(f"geometry.{g}"), "calls/iter")
        m[f"geometry.{g}.self_ms_per_iter"] = (self_ms(f"geometry.{g}"), "ms/iter")
    ex = "sim.execute_plan"
    m[f"{ex}.self_ms_per_iter"] = (self_ms(ex), "ms/iter")
    m[f"{ex}.steps_per_call"] = (mean_tag(ex), "steps/call")
    m[f"{ex}.us_per_step"] = (
        1e6 * sum(dur(i) for i in execute) / execute_steps if execute_steps else 0.0,
        "us/step")
    m[f"{ex}.iter_share"] = (iter_share(ex), "ratio")
    m["sim.snapshot.self_ms_per_iter"] = (self_ms("sim.snapshot"), "ms/iter")
    m["sim.symbolic_state.self_ms_per_iter"] = (self_ms("sim.symbolic_state"), "ms/iter")
    wp = "warp.warp_trajectory"
    m[f"{wp}.self_ms_per_iter"] = (self_ms(wp), "ms/iter")
    m[f"{wp}.us_p50"] = (p50_us(wp), "us")
    m[f"{wp}.steps_out_per_call"] = (mean_tag(wp), "steps/call")
    m[f"{wp}.iter_share"] = (iter_share(wp), "ratio")
    vf = "play.verify_by_correspondence"
    m[f"{vf}.self_ms_per_iter"] = (self_ms(vf), "ms/iter")
    m[f"{vf}.pass_ratio"] = (ratio(vf, lambda t: t is True), "ratio")
    m[f"{vf}.iter_share"] = (iter_share(vf), "ratio")
    pl = "play.planner_plan"
    m[f"{pl}.us_p50"] = (p50_us(pl), "us")
    m[f"{pl}.no_plan_ratio"] = (ratio(pl, lambda t: t == RAISED), "ratio")
    m["play.run_iteration.self_ms_per_iter"] = (self_ms("play.run_iteration"), "ms/iter")
    m["play.save_checkpoint.ms_p50"] = (
        1e3 * _median([dur(i) for i in by_name.get("play.save_checkpoint", [])]), "ms")
    finalize = by_name.get("play.finalize", [])
    m["play.finalize.ms"] = (
        1e3 * sum(dur(i) for i in finalize) / len(finalize) if finalize else 0.0, "ms")
    for b in ("sample_target_task", "select_top_k"):
        m[f"bandit.{b}.self_ms_per_iter"] = (self_ms(f"bandit.{b}"), "ms/iter")
    m["demo.summarize_demo.ms_per_demo"] = (ms_per_demo("demo.summarize_demo"), "ms/demo")
    m["sim.scripted_pick_place.ms_per_demo"] = (
        ms_per_demo("sim.scripted_pick_place"), "ms/demo")
    m["demo.save_demo_library.ms_per_demo"] = (
        ms_per_demo("demo.save_demo_library", tag_counts=True), "ms/demo")
    m["sim.DemoLibrary.load.ms_per_demo"] = (
        ms_per_demo("sim.DemoLibrary.load", tag_counts=True), "ms/demo")
    m["trace.spans_per_iter"] = (per_op(sum(1 for i in range(n) if in_op(i))), "spans/iter")
    return m


# ---------------------------------------------------------------------------
# shared helpers

def tree_digest(directory) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def reload_mismatches(summaries, sidecars, library) -> list:
    """Demo ids whose reloaded summary or sidecar differs from the generated one."""
    return [s.id for s in summaries
            if library.demos.get(s.id) != s
            or _normalized(library.sidecars.get(s.id)) != _normalized(sidecars[s.id])]


def build_library(directory, layout, tasks, seed, demos_per_task):
    """Generate, save, load and register one library. Returns the seconds the
    four library calls took, the generated summaries and sidecars, and the
    loaded library."""
    t0 = perf_counter()
    summaries, sidecars = sim.generate_demo_library(layout, tasks, n=demos_per_task,
                                                    seed=seed)
    demo.save_demo_library(directory, summaries, sidecars)
    library = sim.DemoLibrary.load(directory)
    library.register_with(sim.CorrespondenceOracle())
    return perf_counter() - t0, summaries, sidecars, library


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def _p95(xs):
    return statistics.quantiles(xs, n=20)[18] if len(xs) >= 2 else _median(xs)


class Run:
    """Bookkeeping shared by the workloads: operation counts, failures, the
    lines printed before the result, the tracer and the prefix digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.tracer = None
        self.digest = None   # SHA-256 of the replayed prefix's artifacts

    def fail(self, count, message):
        self.failed += count
        self.notes.append(f"FAILED: {message}")

    def note(self, message):
        self.notes.append(message)


def sub_seeds(seed, sizes):
    """One non-negative library seed per library of the run; disjoint across
    run seeds below 2**31."""
    return [seed % 2**31 * sizes.libraries + j for j in range(sizes.libraries)]


def set_up(run, base, layout, tasks, seeds, sizes, start=None):
    """The set-up every workload shares: build one library per seed
    (generate, save, load, register) under `base` and, for play, start one
    session on each. The reload check runs after the timed part. Returns
    (set-up seconds, library-build seconds, library file digests, sessions)."""
    built, sessions, library_s = [], [], 0.0
    t0 = perf_counter()
    for j, seed in enumerate(seeds):
        seconds, summaries, sidecars, library = build_library(
            base / f"library{j}", layout, tasks, seed, sizes.demos_per_task)
        library_s += seconds
        built.append((summaries, sidecars, library))
        if start is not None:
            sessions.append(start(seed, base / f"library{j}", base / f"session{j}"))
    setup_s = perf_counter() - t0
    for summaries, sidecars, library in built:
        run.attempted += len(summaries)
        bad = reload_mismatches(summaries, sidecars, library)
        if bad:
            run.fail(len(bad), f"reloaded library differs from generated demos {bad[:5]}")
    digests = [tree_digest(base / f"library{j}") for j in range(len(seeds))]
    return setup_s, library_s, digests, sessions


def repeated_set_up(run, work, layout, tasks, seeds, sizes, start=None):
    """`set_up` repeated `sizes.setup_repeats` times; same-seed builds must
    write the same bytes. Returns (set-up seconds per repeat, library-build
    seconds per repeat, library file digests, the last repeat's sessions)."""
    setup_s, library_s, digests = [], [], set()
    for r in range(sizes.setup_repeats):
        seconds, lib_seconds, lib_digests, sessions = set_up(
            run, work / f"setup{r}", layout, tasks, seeds, sizes, start)
        setup_s.append(seconds)
        library_s.append(lib_seconds)
        digests.add(tuple(lib_digests))
    if len(digests) != 1:
        run.fail(1, "same-seed library builds wrote different bytes")
    return setup_s, library_s, digests.pop(), sessions


# ---------------------------------------------------------------------------
# play workloads

def session_config(workload, seed, library_dir, out_dir):
    return play.SessionConfig(demo_library=str(library_dir), seed=seed, k=K,
                              out_dir=str(out_dir), **PLAY_CONFIGS[workload])


def play_rounds(run, sessions, tracer=None, rounds=None, seconds=None, min_rounds=0):
    """Closed loop with one caller. A round advances every session by one
    iteration, in turn, each through one `run` call (which also writes the
    checkpoint when one is due); each call starts only after the previous
    one returned. Runs `rounds` rounds, or else until both `seconds` and
    `min_rounds` are reached; a call that raises is counted as failed and
    ends the loop. Returns (call durations in call order, wall seconds, peak
    RSS in MB when `min_rounds` rounds were done)."""
    durations = []
    done = 0
    prefix_rss = None
    t_start = perf_counter()
    while True:
        if prefix_rss is None and done >= min_rounds:
            prefix_rss = _rss_mb()
        if (done >= rounds if rounds is not None
                else done >= min_rounds and perf_counter() - t_start >= seconds):
            break
        for j, session in enumerate(sessions):
            if tracer is not None:
                tracer.request = len(durations) + 1
            t0 = perf_counter()
            try:
                session.run(until=done + 1)
            except Exception:
                traceback.print_exc()
                run.fail(1, f"iteration {done + 1} of session {j} raised")
                return durations, perf_counter() - t_start, prefix_rss
            durations.append(perf_counter() - t0)
        done += 1
    return durations, perf_counter() - t_start, prefix_rss


def ground_truth_failures(records, tasks) -> list:
    """Iterations whose logged outcome disagrees with the truth computed from
    the logged symbolic states: the task's object reached its destination
    slot and every other object kept its slot. Success also needs the
    correspondence verification to have passed."""
    bad = []
    for rec in records:
        if not rec["executed"]:
            ok = rec["success"] is False
        else:
            task = tasks[rec["attempted_task"]]
            pre = rec["pre_state"]["slots"]
            post = rec["post_state"]["slots"]
            truth = (post[task.obj] == task.dest
                     and all(post[o] == s for o, s in pre.items() if o != task.obj))
            verified = rec["verification"] is None or rec["verification"]["passed"]
            ok = (rec["evaluator_success"] == truth
                  and rec["success"] == (truth and verified)
                  and (rec["episode_file"] is not None) == rec["success"])
        if not ok:
            bad.append(rec["iteration"])
    return bad


def _log_lines(session):
    return (session.out_dir / play.LOG_FILE).read_bytes().splitlines(keepends=True)


def run_play(run, workload, seed, seconds, trace, work, sizes):
    layout, tasks = sim.default_layout(), builtin_tasks()
    task_by_id = {t.id: t for t in tasks}
    seeds = sub_seeds(seed, sizes)

    def start(sub_seed, lib_dir, out_dir):
        return play.PlaySession.start(session_config(workload, sub_seed, lib_dir, out_dir))

    setup_s, library_s, lib_digests, sessions = repeated_set_up(run, work, layout, tasks,
                                                                seeds, sizes, start)
    prefix_rounds = max(sizes.prefix // len(seeds), 1)
    replay_rounds = min(max(sizes.replay // len(seeds), 1), prefix_rounds)
    durations, elapsed, prefix_rss = play_rounds(run, sessions, seconds=seconds,
                                                 min_rounds=prefix_rounds)
    n = len(durations)
    run.attempted += n
    checkpoints = [s.save_checkpoint() for s in sessions]
    for s in sessions:
        s.finalize()
    logs = [_log_lines(s) for s in sessions]
    records = [json.loads(line) for lines in logs for line in lines]
    bad = ground_truth_failures(records, task_by_id)
    if bad:
        run.fail(len(bad), f"success disagrees with ground truth at iterations {bad[:5]}")
    successes = sum(r["success"] for r in records)
    prefix_rounds = min(prefix_rounds, min(len(lines) for lines in logs))
    replay_rounds = min(replay_rounds, prefix_rounds)
    prefix_records = [json.loads(line) for lines in logs for line in lines[:prefix_rounds]]

    if trace:
        # The same replay untraced, just before the traced one, so that the
        # overhead compares runs close in time on a machine whose speed drifts.
        _, _, _, baseline = set_up(run, work / "untraced", layout, tasks, seeds, sizes, start)
        b_durations, _, _ = play_rounds(run, baseline, rounds=replay_rounds)
    tracer = run.tracer = Tracer() if trace else None
    with tracer.installed() if trace else nullcontext():
        r_setup_s, r_library_s, replay_digests, replays = set_up(
            run, work / "replay", layout, tasks, seeds, sizes, start)
        r_durations, _, _ = play_rounds(run, replays, tracer, rounds=replay_rounds)
        if tracer is not None:
            tracer.request = "teardown"
        for s in replays:
            s.save_checkpoint()
            s.finalize()
    differ = sum(1 for a, b in zip(lib_digests, replay_digests) if a != b)
    if differ:
        run.fail(differ, "replayed library builds wrote different bytes")
    if not trace:   # the untraced replay's set-up is one more sample
        setup_s.append(r_setup_s)
        library_s.append(r_library_s)
    differ = sum(1 for lines, s in zip(logs, replays)
                 for a, b in zip(lines[:replay_rounds], _log_lines(s)) if a != b)
    if differ or any(len(_log_lines(s)) != replay_rounds for s in replays):
        run.fail(max(differ, 1), f"same-seed replay{' (traced)' if trace else ''} wrote "
                                 f"different session logs ({differ} records differ)")

    run.digest = hashlib.sha256(b"".join(line for lines in logs
                                         for line in lines[:prefix_rounds])).hexdigest()
    n_demos = len(seeds) * len(tasks) * sizes.demos_per_task
    run.note(f"{workload} seed {seed}: {n} iterations in {elapsed:.3f} s; closed loop, "
             f"1 caller, {len(seeds)} sessions in turn (library seeds {seeds}), "
             f"{sizes.demos_per_task} demos per task x {len(tasks)} tasks each, k={K}")
    run.note(f"log_sha256 first {prefix_rounds} iterations per session {run.digest}")
    run.note("log_sha256 all iterations "
             f"{hashlib.sha256(b''.join(line for lines in logs for line in lines)).hexdigest()}")
    run.note(f"iter_ms samples {n}; set-up samples {len(setup_s)}; replayed {replay_rounds} "
             "iterations per session")
    run.note(f"demos_per_s {n_demos / statistics.median(library_s):.1f} "
             "(set-up library builds, median)")
    episodes = sum(tree_bytes(s.out_dir / "dataset" / "episodes") for s in sessions)
    artifacts = {
        "play.log_bytes_per_iter": (sum(map(len, (b"".join(l) for l in logs))) / max(n, 1),
                                    "bytes/iter"),
        "play.checkpoint_bytes_last": (
            statistics.mean(c.stat().st_size for c in checkpoints), "bytes"),
        "play.episode_bytes_per_success": (episodes / max(successes, 1), "bytes/success"),
        "demo.library_bytes_per_demo": (
            sum(tree_bytes(d) for d in (work / "setup0").glob("library*")) / n_demos,
            "bytes/demo"),
    }
    if trace:
        return trace_metrics(run, len(r_durations), sum(b_durations),
                             sum(r_durations)), artifacts
    return {
        "iters_per_s": (n / elapsed, "1/s"),
        "successes_per_s": (successes / elapsed, "1/s"),
        "success_rate": (sum(r["success"] for r in prefix_records)
                         / max(len(prefix_records), 1), "ratio"),
        "iter_ms_p50": (1e3 * _median(durations), "ms"),
        "iter_ms_p95": (1e3 * _p95(durations), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (prefix_rss or _rss_mb(), "MB"),
    }, artifacts


def trace_metrics(run, n, busy, traced_busy):
    """Per-layer metrics of the traced replay plus the tracing overhead: the
    traced replay's summed operation time over that of the same operations
    replayed untraced just before."""
    tracer = run.tracer
    metrics = layer_metrics(tracer.spans, n)
    overhead = 100.0 * (traced_busy / busy - 1.0) if busy else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    run.note(f"traced replay: {n} operations in {traced_busy:.3f} s vs "
             f"{busy:.3f} s untraced ({overhead:+.1f} % tracing overhead), "
             f"{len(tracer.spans)} spans")
    return metrics


# ---------------------------------------------------------------------------
# demo-library workload

def demo_ops(run, layout, tasks, seed, work, tracer=None, count=None, seconds=None,
             min_count=0):
    """One operation builds a library of one demo per task with
    `build_library` (generate, save, load, register), its seed derived from
    the benchmark seed and the operation number. Runs `count` operations, or
    else until both `seconds` and `min_count` are reached; an operation that
    raises is counted as failed and ends the loop. Returns (durations,
    per-operation file digests, bytes written, number of operations whose
    reloaded demos differ from the generated ones, peak RSS in MB when
    `min_count` operations were done)."""
    durations, digests, nbytes, n_bad = [], [], 0, 0
    prefix_rss = None
    t_start = perf_counter()
    while True:
        i = len(durations)
        if prefix_rss is None and i >= min_count:
            prefix_rss = _rss_mb()
        if (i >= count if count is not None
                else i >= min_count and perf_counter() - t_start >= seconds):
            break
        if tracer is not None:
            tracer.request = i + 1
        op_dir = work / f"op{i:06d}"
        try:
            seconds_taken, summaries, sidecars, library = build_library(
                op_dir, layout, tasks, seed * 1_000_003 + i, 1)
        except Exception:
            traceback.print_exc()
            run.fail(len(tasks), f"demo operation {i + 1} raised")
            break
        durations.append(seconds_taken)
        bad = reload_mismatches(summaries, sidecars, library)
        if bad:
            n_bad += 1
            run.fail(len(bad), f"reloaded demos of operation {i + 1} differ: {bad}")
        # Files stay until the run ends: deleting each operation's files made
        # the next save's time bimodal, as it reused the space just freed.
        digests.append(tree_digest(op_dir))
        nbytes += tree_bytes(op_dir)
    return durations, digests, nbytes, n_bad, prefix_rss


def run_demo_library(run, workload, seed, seconds, trace, work, sizes):
    layout, tasks = sim.default_layout(), builtin_tasks()
    seeds = sub_seeds(seed, sizes)
    setup_s, _, _, _ = repeated_set_up(run, work, layout, tasks, seeds, sizes)
    n_demos = len(seeds) * len(tasks) * sizes.demos_per_task
    batch = len(tasks)   # demos per operation
    prefix = max(sizes.prefix // batch, 1)
    replay = min(max(sizes.replay // batch, 1), prefix)

    durations, digests, nbytes, n_bad, prefix_rss = demo_ops(
        run, layout, tasks, seed, work / "timed", seconds=seconds, min_count=prefix)
    n = len(durations)
    busy = sum(durations)
    run.attempted += n * batch
    prefix = min(prefix, n)
    replay = min(replay, n)

    if trace:   # untraced, just before the traced replay: see run_play
        b_durations = demo_ops(run, layout, tasks, seed, work / "untraced", count=replay)[0]
    tracer = run.tracer = Tracer() if trace else None
    with tracer.installed() if trace else nullcontext():
        r_durations, r_digests, _, _, _ = demo_ops(run, layout, tasks, seed,
                                                   work / "replay", tracer, count=replay)
    if r_digests != digests[:replay]:
        differ = sum(1 for a, b in zip(digests, r_digests) if a != b)
        run.fail(max(differ, 1) * batch, f"same-seed replay{' (traced)' if trace else ''} "
                                         f"wrote different demo files ({differ} operations differ)")

    run.digest = hashlib.sha256("".join(digests[:prefix]).encode()).hexdigest()
    run.note(f"{workload} seed {seed}: {n} operations of {batch} demos in {busy:.3f} s; "
             f"closed loop, 1 caller; set-up libraries {seeds} of {n_demos} demos in all")
    run.note(f"demo_sha256 first {prefix} operations {run.digest}")
    run.note(f"demo_sha256 all {n} operations "
             f"{hashlib.sha256(''.join(digests).encode()).hexdigest()}")
    run.note(f"iter_ms samples {n}; set-up samples {len(setup_s)}; replayed {replay} operations; "
             f"timed-phase bytes per demo {nbytes / max(n * batch, 1):.0f}")
    run.note(f"demos_per_s {n * batch / busy:.1f} (timed phase)")
    artifacts = {
        "play.log_bytes_per_iter": (0.0, "bytes/iter"),
        "play.checkpoint_bytes_last": (0.0, "bytes"),
        "play.episode_bytes_per_success": (0.0, "bytes/success"),
        "demo.library_bytes_per_demo": (
            sum(tree_bytes(d) for d in (work / "setup0").glob("library*")) / n_demos,
            "bytes/demo"),
    }
    if trace:
        return trace_metrics(run, len(r_durations), sum(b_durations),
                             sum(r_durations)), artifacts
    return {
        "iters_per_s": (n / busy, "1/s"),
        "successes_per_s": ((n - n_bad) / busy, "1/s"),
        "success_rate": ((n - n_bad) / max(n, 1), "ratio"),
        "iter_ms_p50": (1e3 * _median(durations), "ms"),
        "iter_ms_p95": (1e3 * _p95(durations), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (prefix_rss or _rss_mb(), "MB"),
    }, artifacts


# ---------------------------------------------------------------------------
# entry point

def run_workload(workload, seed, seconds, trace, work_root=BENCH_DIR / ".work",
                 out_dir=BENCH_DIR / "out", sizes=Sizes()):
    """Run one workload; returns (result object, Run bookkeeping). The work
    directory is removed afterwards; a traced run writes its spans to
    `out_dir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    work = Path(work_root) / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run()
    body = run_demo_library if workload == "demo-library" else run_play
    try:
        metrics, artifacts = body(run, workload, seed, seconds, trace, work, sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in artifacts.items():
        run.note(f"{name} {value:.1f} {unit}")
    if trace:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        run.tracer.write(Path(out_dir) / f"spans-{workload}.jsonl.gz")
        metrics = {**metrics, **artifacts}
    run.note(f"failed_ratio {run.failed}/{run.attempted}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result, run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in run.notes:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
