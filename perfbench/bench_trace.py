"""Span tracer that wraps persuade's public functions at each layer boundary.

Only the traced run installs the wrappers.  Because `cli`, `learning` and
`equilibria` import many functions by name, every module of the package
that holds a reference to a wrapped function gets the wrapper, and the
original comes back on `uninstall`.  Spans (name, start, end, parent span,
op id) stay in memory and are written when the run ends; per-name
aggregates (calls, self time, counters) are kept alongside so the report
needs no second pass.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from persuade import equilibria, game, io, learning, lp, neural, reductions, scenarios, cli


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim < 2 else int(x.shape[0])


def _lp_after(tr, args, kwargs, result):
    tr.counts["lp.infeasible"] += result.status == lp.INFEASIBLE


def _lp_before(tr, args, kwargs):
    # tableau size computed from the LP shape: m rows x (n + m_ub + m + 1) columns
    prog = args[0]
    n = np.size(prog.c)
    m_ub = 0 if prog.A_ub is None else np.size(prog.A_ub) // n
    m = m_ub + (0 if prog.A_eq is None else np.size(prog.A_eq) // n)
    tr.counts["lp.tableau_cells"] += m * (n + m_ub + m + 1)


def _br_after(tr, args, kwargs, result):
    tr.counts["equilibria.best_response.feasible_maps"] += int(result.feasible_maps)


def _local_after(tr, args, kwargs, result):
    tr.counts["equilibria.local_verify.deviations"] += int(result.samples) * args[0].n_senders


def _batch_before(tr, args, kwargs):
    tr.counts["game.batch.rows"] += int(np.shape(args[1])[0])


def _nn_before(name):
    def hook(tr, args, kwargs):
        tr.counts[f"{name}.rows"] += _rows(args[1])
    return hook


def _train_before(tr, args, kwargs):
    tr.counts["learning.train.epochs"] += int(args[2].epochs)


def _pipeline_after(tr, args, kwargs, result):
    checked = sum(o.verified is not None for o in result.restarts)
    tr.counts["learning.candidates_checked"] += checked
    tr.counts["learning.candidates_verified"] += bool(result.verified)


# (module, function, span name, hook before the call, hook after a normal return)
TARGETS = [
    (cli, "main", "cli", None, None),
    (io, "read_game", "io", None, None),
    (io, "read_policies", "io", None, None),
    (io, "write_game", "io", None, None),
    (io, "write_policies", "io", None, None),
    (io, "write_report", "io", None, None),
    (io, "write_sidecar", "io", None, None),
    (io, "write_manifest", "io", None, None),
    (io, "load_or_sample_dataset", "io", None, None),
    (neural, "save_params", "io", None, None),
    (scenarios, "synthetic_instance", "scenarios.generate", None, None),
    (scenarios, "quality_ads_instance", "scenarios.generate", None, None),
    (scenarios, "product_ads_instance", "scenarios.generate", None, None),
    (scenarios, "ride_hailing_instance", "scenarios.generate", None, None),
    (reductions, "public_to_best_response", "reductions.build", None, None),
    (reductions, "bimatrix_to_persuasion", "reductions.build", None, None),
    (lp, "solve_lp", "lp", _lp_before, _lp_after),
    (equilibria, "best_response_exact", "equilibria.best_response", None, _br_after),
    (equilibria, "best_response_fixed_interpretation", "equilibria.best_response", None, _br_after),
    (equilibria, "verify_nash", "equilibria.verify_nash", None, None),
    (equilibria, "local_ne_verify", "equilibria.local_verify", None, _local_after),
    (equilibria, "perturb_policy", "equilibria.perturb", None, None),
    (game, "ex_ante_utilities", "game.ex_ante", None, None),
    (game, "ex_ante_utilities_fixed_interpretation", "game.fixed_interp", None, None),
    (game, "induced_action_map", "game.induced_map", None, None),
    (game, "ex_ante_utilities_batch", "game.batch", _batch_before, None),
    (neural, "forward", "neural.forward", _nn_before("neural.forward"), None),
    (neural, "backward", "neural.backward", _nn_before("neural.backward"), None),
    (learning, "sample_dataset", "learning.sample", None, None),
    (learning, "train", "learning.train", _train_before, None),
    (learning, "extragradient", "learning.extragradient", None, None),
    (learning, "find_local_ne", "learning.pipeline", None, _pipeline_after),
]


class LpCounter:
    """Counts the LP solves started while in use."""

    def __enter__(self):
        self.orig = orig = lp.solve_lp
        self.solves = 0

        def counted(*args, **kwargs):
            self.solves += 1
            return orig(*args, **kwargs)

        lp.solve_lp = counted
        return self

    def __exit__(self, *exc):
        lp.solve_lp = self.orig
        return False


class Tracer:
    """In-memory spans plus per-name calls, self time and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.op_self_s: defaultdict = defaultdict(float)     # spans inside ops only, not set-up
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)   # per-call seconds, LP solves only
        self.op_id = -1
        self._stack: list = []      # [span index, seconds covered by children]
        self._patched: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, name: str, error: BaseException | None) -> None:
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        if self.op_id >= 0:
            self.op_self_s[name] += dur - covered
        if name == "lp":
            self.durations[name].append(dur)
        if error is not None:
            self.raised[(name, type(error).__name__)] += 1

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, exc)
                raise
            tracer._close(name, None)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- roll-back of an op cut off by the limit -------------------------------

    def mark(self) -> tuple:
        return (len(self.span_name), len(self.durations["lp"]), Counter(self.calls), Counter(self.raised),
                dict(self.self_s), dict(self.op_self_s), Counter(self.counts))

    def rollback(self, mark: tuple) -> None:
        """Forget everything recorded since `mark`: where a limit cuts an op
        depends on timing, and counts must repeat exactly."""
        n_spans, n_lp, calls, raised, self_s, op_self_s, counts = mark
        for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
            del arr[n_spans:]
        del self.durations["lp"][n_lp:]
        self.calls, self.raised, self.counts = calls, raised, counts
        self.self_s = defaultdict(float, self_s)
        self.op_self_s = defaultdict(float, op_self_s)
        self._stack.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Point every package-level reference of each target at its wrapper."""
        modules = [m for k, m in sys.modules.items() if k == "persuade" or k.startswith("persuade.")]
        for module, attr, name, before, after in TARGETS:
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
