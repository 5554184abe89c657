"""The traced run: per-layer self times from spans around the calls the CLI makes.

Spans are recorded from the benchmark's side: for the duration of a traced
pipeline, the public functions that ``rislink.cli`` (and the sweep in
``rislink.brcs``) call are replaced by wrappers that record a span and then
call the original. Nothing in the package changes. The same pipeline also
runs untraced, in the same process, so the two wall times give the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import rislink as rl
import rislink.brcs
import rislink.cli

from checks import Reference, digest, OUTPUTS
from common import IMPORT_SNIPPET, Tally, caps_for_sweep, cli_args

# (module, attribute, layer): the calls each CLI command makes, plus the two
# calls the sweep makes once per angle. Attributes a later version lacks are skipped.
TRACED_CALLS = [
    (rislink.cli, "read_scenario", "scenario"),
    (rislink.cli, "read_touchstone", "touchstone"),
    (rislink.cli, "matrix_at_frequency", "touchstone"),
    (rislink.cli, "write_touchstone", "touchstone"),
    (rislink.cli, "parse_pattern_table", "patterns"),
    (rislink.cli, "synth_ris_matrix", "farfield"),
    (rislink.cli, "assemble_full_matrix", "farfield"),
    (rislink.cli, "phase_gradient_seed", "loads"),
    (rislink.cli, "optimize", "loads"),
    (rislink.cli, "sweep_rx_angle", "brcs"),
    (rislink.cli, "flat_reflector_reference", "brcs"),
    (rislink.cli, "export_csv", "brcs"),
    (rislink.brcs, "assemble_full_matrix", "farfield"),
    (rislink.brcs, "reduce_loaded", "network"),
]

PER_LAYER = {
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms",
    "scenario.read_ms": "ms",
    "touchstone.read_ms": "ms", "touchstone.read_mb_per_s": "MB/s", "touchstone.write_ms": "ms",
    "patterns.parse_ms": "ms",
    "farfield.assemble_ms": "ms", "farfield.synth_ris_ms": "ms",
    "network.reduce_us": "us",
    "loads.objective_us": "us", "loads.gradient_us": "us", "loads.objective_overhead_x": "x",
    "loads.seed_ms": "ms", "loads.optimize_s": "s", "loads.evals": "count",
    "loads.improving_frac": "ratio",
    "brcs.sweep_ms": "ms", "brcs.sweep_us_per_angle": "us", "brcs.reference_ms": "ms",
    "brcs.export_ms": "ms",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str
    start: float = 0.0
    end: float = 0.0


@dataclass
class Tracer:
    """Spans kept in memory; ``counts`` holds work counted at the same boundaries."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    request: str = ""
    _open: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.request)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "touchstone.read_touchstone":
            self.counts["touchstone.read_bytes"] += Path(args[0]).stat().st_size
        elif name == "loads.optimize":
            for start in result.trace:
                history = start.best_history
                self.counts["loads.evals"] += start.n_evals
                self.counts["loads.improving"] += sum(b > a for a, b in zip((-math.inf, *history), history))

    def self_and_total(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: self time (minus child spans) and inclusive time, in seconds."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        self_s, total_s = defaultdict(float), defaultdict(float)
        for s in self.spans:
            self_s[s.name] += s.end - s.start - child[s.id]
            total_s[s.name] += s.end - s.start
        return self_s, total_s


@contextlib.contextmanager
def traced_calls(tracer: Tracer):
    saved = []
    for module, attr, layer in TRACED_CALLS:
        fn = getattr(module, attr, None)
        if fn is not None:
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, f"{layer}.{attr}"))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, angles: int) -> dict[str, float]:
    self_s, total_s = tracer.self_and_total()

    def ms(*names: str) -> float:
        return 1e3 * sum(self_s[n] for n in names)

    read_s, evals = self_s["touchstone.read_touchstone"], tracer.counts["loads.evals"]
    return {
        "scenario.read_ms": ms("scenario.read_scenario"),
        "touchstone.read_ms": ms("touchstone.read_touchstone", "touchstone.matrix_at_frequency"),
        "touchstone.read_mb_per_s": tracer.counts["touchstone.read_bytes"] / 1e6 / read_s if read_s else 0.0,
        "touchstone.write_ms": ms("touchstone.write_touchstone"),
        "patterns.parse_ms": ms("patterns.parse_pattern_table"),
        "farfield.assemble_ms": ms("farfield.assemble_full_matrix"),
        "farfield.synth_ris_ms": ms("farfield.synth_ris_matrix"),
        "loads.seed_ms": ms("loads.phase_gradient_seed"),
        "loads.optimize_s": self_s["loads.optimize"],
        "loads.evals": evals,
        "loads.improving_frac": tracer.counts["loads.improving"] / evals if evals else 0.0,
        "brcs.sweep_ms": ms("brcs.sweep_rx_angle"),
        "brcs.sweep_us_per_angle": 1e6 * total_s["brcs.sweep_rx_angle"] / angles,
        "brcs.reference_ms": ms("brcs.flat_reflector_reference"),
        "brcs.export_ms": ms("brcs.export_csv"),
    }


def import_times(stderr: str) -> tuple[float, float]:
    """(rislink import, scipy imported under it) in ms, from ``python -X importtime`` output.

    Lines come child-first; the name column is indented two spaces per level.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(parts[1])))
    total = scipy = 0
    ancestors: list[str] = []
    for depth, name, cumulative_us in reversed(entries):
        del ancestors[depth:]
        roots = [a.split(".")[0] for a in ancestors] or [name.split(".")[0]]
        if roots[0] == "rislink":
            if depth == 0:
                total += cumulative_us
            elif name.split(".")[0] == "scipy" and "scipy" not in roots:
                scipy += cumulative_us
        ancestors.append(name)
    return total / 1e3, scipy / 1e3


def _per_call(fns: dict, rounds: int = 9, batch_s: float = 0.02) -> dict[str, float]:
    """Median seconds per call of each function; batches are interleaved across functions."""
    sizes = {}
    for name, fn in fns.items():
        start, calls = time.perf_counter(), 0
        while time.perf_counter() - start < batch_s:
            fn()
            calls += 1
        sizes[name] = calls
    samples = defaultdict(list)
    for _ in range(rounds):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(sizes[name]):
                fn()
            samples[name].append((time.perf_counter() - start) / sizes[name])
    return {name: statistics.median(values) for name, values in samples.items()}


def microtimings(ref: Reference) -> dict[str, float]:
    """objective, gradient, reduce_loaded and a bare solve of the same system.

    The inputs are fixed: the assembled link at the configured angles with every
    load at the middle of the capacitance range, so no output of the run feeds in.
    """
    full, cfg, n = ref.full, ref.cfg, ref.wl.n_elements
    caps = rl.LoadVector.uniform(0.5 * (cfg.bounds.c_min_f + cfg.bounds.c_max_f), n)
    gammas = rl.load_gammas(caps, full.freq_hz, full.z0_ohm, cfg.varactor)
    s = full.entries
    system = np.eye(n) - s[1 : n + 1, 1 : n + 1] * gammas.as_array[np.newaxis, :]
    rhs = s[1 : n + 1][:, [0, n + 1]]
    t = _per_call({
        "objective": lambda: rl.objective(full, caps, cfg.bounds, cfg.varactor),
        "gradient": lambda: rl.objective_gradient(full, caps, cfg.bounds, cfg.varactor),
        "reduce": lambda: rl.reduce_loaded(full, gammas),
        "solve": lambda: np.linalg.solve(system, rhs),
    })
    return {
        "network.reduce_us": 1e6 * t["reduce"],
        "loads.objective_us": 1e6 * t["objective"],
        "loads.gradient_us": 1e6 * t["gradient"],
        "loads.objective_overhead_x": t["objective"] / t["solve"],
    }


def _pipeline(wl, ref: Reference, out: Path, tracer: Tracer | None, tally: Tally) -> float:
    """Run the workload's commands in-process and check their outputs; returns the wall time."""
    start = time.perf_counter()
    for command in wl.commands:
        caps = caps_for_sweep(wl, out) if command == "sweep" else None
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                if tracer is None:
                    code = rislink.cli.main(cli_args(wl, command, out, caps))
                else:
                    with tracer.span(f"cli.{command}"), traced_calls(tracer):
                        code = rislink.cli.main(cli_args(wl, command, out, caps))
        except Exception:  # a crash counts as a failed operation; the run goes on
            traceback.print_exc()
            tally.record([f"{command}: raised"])
            continue
        tally.record([f"{command}: exit code {code}"] if code else ref.check(command, out, stdout.getvalue(), caps))
    return time.perf_counter() - start


def traced_run(wl, ref: Reference, work: Path, seconds: float, child, deadline: float):
    """Returns samples, the tally, the per-layer metrics and the spans of every traced pipeline.

    Pipelines run in pairs, one traced and one untraced, alternating which goes
    first so that a drift in machine speed does not land on one side.
    """
    start = time.perf_counter()
    tally = Tally()
    samples = defaultdict(list)
    for k in range(3):
        run = child(["-X", "importtime", "-c", IMPORT_SNIPPET], work / f"importtime{k}")
        tally.record([f"import: exit code {run.code}"] if run.code else [])
        if not run.code:
            total_ms, scipy_ms = import_times(run.stderr)
            samples["cli.import_ms"].append(total_ms)
            samples["cli.import_scipy_ms"].append(scipy_ms)

    spans: list[dict] = []
    digests: dict[str, set] = defaultdict(set)
    for pair in range(10_000):
        for traced in (pair % 2 == 1, pair % 2 == 0):
            tracer = Tracer(request=f"pipeline{pair}") if traced else None
            out = work / f"{'traced' if traced else 'untraced'}{pair}"
            samples["traced_s" if traced else "untraced_s"].append(_pipeline(wl, ref, out, tracer, tally))
            for command in wl.commands:
                digests[command].add(digest(out / OUTPUTS[command].format(p=ref.full.n_ports)))
            if tracer is not None:
                spans += [vars(s) for s in tracer.spans]
                for name, value in layer_metrics(tracer, ref.alphas_deg.size).items():
                    samples[name].append(value)
        pair_s = samples["traced_s"][-1] + samples["untraced_s"][-1]
        elapsed = time.perf_counter() - start
        if elapsed + pair_s > seconds or time.perf_counter() + pair_s > deadline:
            break
    for command, found in digests.items():
        if len(found) > 1:
            tally.record([f"{command}: traced and untraced outputs differ"])

    metrics = {name: statistics.median(samples[name]) if name in samples else 0.0 for name in PER_LAYER}
    metrics.update(microtimings(ref))
    metrics["trace.overhead_frac"] = (
        statistics.median(samples["traced_s"]) / statistics.median(samples["untraced_s"]) - 1
    )
    return dict(samples), tally, metrics, spans
