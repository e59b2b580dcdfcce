"""Out-of-program tracing of mmrd's public functions.

``Tracer.install`` replaces every public function of each layer module
(``mmrd.graphs``, ``mmrd.mesh``, ...) by a timing wrapper, at every loaded
``mmrd`` module that binds it: ``step`` is bound in ``mmrd.stepper``,
``mmrd.compare`` and ``mmrd`` itself, and all three bindings get the same
wrapper.  ``uninstall`` puts the originals back.  Nothing inside mmrd is
changed, so calls a module makes to its own private helpers are part of the
caller's self time.

Each call is a span with a parent (the innermost wrapped call active when it
started).  Spans are folded as they close into per-function totals and
per-(parent, child) edges, because a round of ``pair_reactor`` makes over
10^5 wrapped calls; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

LAYERS = ("graphs", "mesh", "reactions", "stepper", "spectral", "compare", "scenarios", "cli")


class Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive time of outermost calls (recursion counted once)
        self.self_time = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.targets: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"mmrd.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    self.targets[id(fn)] = (f"{layer}.{attr}", fn)
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.stack: list[list] = []
        self.step_durations: list[float] = []
        self.extra = {"step.rejected": 0, "resolve_terms.nodes": 0,
                      "resolve_terms.combined.calls": 0, "resolve_terms.combined.s": 0.0}
        self.coverage_errors: list[str] = []
        self.run_calls = 0
        self._wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self.targets.items()}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mmrd" or modname.startswith("mmrd.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None and self.targets[id(val)][1] is val:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        """Restore the originals, except at bindings rebound since install."""
        for mod, attr, val in reversed(self._patched):
            if getattr(mod, attr) is self._wrappers[id(val)]:
                setattr(mod, attr, val)
        self._patched.clear()

    def reset(self) -> None:
        """Start a new accounting period (set-up or one round)."""
        self.stats = {}
        self.edges = {}
        self.step_durations = []
        self.extra = {k: type(v)() for k, v in self.extra.items()}

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        is_step = name == "stepper.step"
        is_resolve = name == "graphs.resolve_terms"
        is_run = name in ("stepper.run", "compare.run_pair")

        def wrapper(*args, **kwargs):
            st = tracer.stats.get(name)
            if st is None:
                st = tracer.stats[name] = Stat()
            parent = stack[-1][1] if stack else "<benchmark>"
            frame = [0.0, name]
            stack.append(frame)
            st.active += 1
            if is_run:
                before = _step_counts(tracer)
            exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                d = clock() - t0
                stack.pop()
                st.active -= 1
                if stack:
                    stack[-1][0] += d
                st.calls += 1
                if st.active == 0:
                    st.total += d
                st.self_time += d - frame[0]
                edge = tracer.edges.get((parent, name))
                if edge is None:
                    tracer.edges[(parent, name)] = [1, d]
                else:
                    edge[0] += 1
                    edge[1] += d
                if is_step:
                    tracer.step_durations.append(d)
                    if exc is not None and type(exc).__name__ == "SolverFailure":
                        tracer.extra["step.rejected"] += 1
                elif is_resolve:
                    _account_resolve(tracer, args, kwargs, d)
                elif is_run and exc is None:
                    _check_run_coverage(tracer, name, before, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals of the current accounting period, keyed by function."""
        return {
            "functions": {k: {"calls": s.calls, "s": s.total, "self_s": s.self_time}
                          for k, s in self.stats.items()},
            "edges": {f"{p} -> {c}": {"calls": v[0], "s": v[1]} for (p, c), v in self.edges.items()},
            "extra": dict(self.extra),
            "step_durations": list(self.step_durations),
        }


def _step_counts(tracer: Tracer) -> tuple[int, int]:
    st = tracer.stats.get("stepper.step")
    return (st.calls if st else 0), tracer.extra["step.rejected"]


def _account_resolve(tracer: Tracer, args, kwargs, d: float) -> None:
    r = args[0] if args else kwargs["r"]
    terms = args[1] if len(args) > 1 else kwargs["terms"]
    tracer.extra["resolve_terms.nodes"] += int(np.size(r))
    graphs = {id(G) for lam, G in terms if lam > 0 and G.kind != "zero"}
    if len(graphs) >= 2:
        tracer.extra["resolve_terms.combined.calls"] += 1
        tracer.extra["resolve_terms.combined.s"] += d


def _check_run_coverage(tracer: Tracer, name: str, before: tuple[int, int], result) -> None:
    """Compare the accepted steps a run reports with the step calls the
    tracer saw during it.  For run() they must be equal.  run_pair() steps
    two problems per accepted step, and a rejected second step discards the
    first one's successful call, so 2 * accepted <= ok <= 2 * accepted + rejected.
    """
    calls, rejected = _step_counts(tracer)
    rejected -= before[1]
    ok = calls - before[0] - rejected
    accepted = len(result.times) - 1
    tracer.run_calls += 1
    if name == "stepper.run":
        good = ok == accepted
    else:
        good = 2 * accepted <= ok <= 2 * accepted + rejected
    if not good:
        tracer.coverage_errors.append(
            f"{name}: {accepted} accepted steps but the tracer saw {ok} successful "
            f"and {rejected} rejected step calls"
        )


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one accounting period (see README for meaning)."""
    fn = snap["functions"]
    ex = snap["extra"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def tot(*names):
        return sum(fn.get(n, {}).get("s", 0.0) for n in names)

    def self_s(*names):
        return sum(fn.get(n, {}).get("self_s", 0.0) for n in names)

    step_calls = calls("stepper.step")
    rejected = ex["step.rejected"]
    cli_handlers = [n for n in fn if n.startswith("cli.cmd_")]
    return {
        "stepper.steps_accepted": step_calls - rejected,
        "stepper.step.rejected": rejected,
        "stepper.accept_ratio": (step_calls - rejected) / step_calls if step_calls else 1.0,
        "stepper.propose_dt.calls": calls("stepper.propose_dt"),
        "stepper.propose_dt.s": tot("stepper.propose_dt"),
        "stepper.step.calls": step_calls,
        "stepper.step.s": tot("stepper.step"),
        "stepper.step.self_s": self_s("stepper.step"),
        "stepper.run.self_s": self_s("stepper.run"),
        "graphs.resolve_terms.calls": calls("graphs.resolve_terms"),
        "graphs.resolve_terms.s": tot("graphs.resolve_terms"),
        "graphs.resolve_terms.nodes": ex["resolve_terms.nodes"],
        "graphs.resolve_terms.calls_per_step": (
            calls("graphs.resolve_terms") / step_calls if step_calls else 0.0
        ),
        "graphs.resolve_terms.combined.calls": ex["resolve_terms.combined.calls"],
        "graphs.resolve_terms.combined.s": ex["resolve_terms.combined.s"],
        "graphs.dominates.s": tot("graphs.dominates"),
        "reactions.eval_reaction.calls": calls("reactions.eval_reaction"),
        "reactions.eval_reaction.s": tot("reactions.eval_reaction"),
        "reactions.ell.s": tot("reactions.ell"),
        "reactions.lipschitz_bound.s": tot("reactions.lipschitz_bound"),
        "reactions.check_sc.s": tot("reactions.check_sc"),
        "reactions.check_order_F.s": tot("reactions.check_order_F"),
        "compare.check_assumptions.s": tot("compare.check_assumptions"),
        "compare.run_pair.self_s": self_s("compare.run_pair"),
        "compare.ordering_defect.s": tot("compare.ordering_defect"),
        "spectral.principal_eigenpair.s": tot("spectral.principal_eigenpair"),
        "spectral.kaplan.s": tot("spectral.kaplan_y", "spectral.kaplan_z"),
        "mesh.sup_norm.calls": calls("mesh.sup_norm"),
        "mesh.sup_norm.s": tot("mesh.sup_norm"),
        "scenarios.make_preset.s": tot("scenarios.make_preset"),
        "scenarios.build_problem.s": tot("scenarios.build_problem"),
        "cli.write_csv.s": tot("cli.write_csv"),
        "cli.main.self_s": self_s("cli.main", *cli_handlers),
    }
