"""Outside-in tracing of meridian4's layers.

The tracer replaces each public function named in BOUNDARIES on every module
that binds it (modules import each other's functions by name, so patching
the defining module alone would miss most calls) and each method named in
METHODS on its class. Every wrapper counts its calls and times them on a
shared stack, so a boundary's self time is its duration minus the time of
the traced calls made inside it. Boundaries in SPANS also keep one span
(id, parent, name, start, end) per call; the hot inner callbacks (quadrature
integrand, ODE right-hand side, dense output, Jet/Vec4 construction, ...) are
only aggregated into counts and summed time, and expression-tree node
evaluation only into a count.
"""

import sys
import time
from collections import Counter, defaultdict

# (module, function) -> layer name used in the metrics
BOUNDARIES = {
    ("cli", "main"): "cli.main",
    ("cli", "build_surface"): "cli.build_surface",
    ("quadrature", "adaptive_simpson"): "quadrature",
    ("profile", "g_from_f"): "profile.g_from_f",
    ("odeint", "rk4_path"): "odeint.rk4_path",
    ("families", "generate"): "families.generate",
    ("families", "integrate_autonomous"): "families.integrate_autonomous",
    ("families", "constant_kappa_directrix"): "families.directrix",
    ("surface", "point_data"): "surface.point_data",
    ("surface", "classify_point"): "surface.classify_point",
    ("surface", "embed"): "surface.embed",
    ("surface", "tangent_frame"): "surface.tangent_frame",
    ("surface", "normal_frame"): "surface.normal_frame",
    ("surface", "normal_pair"): "surface.normal_pair",
    ("invariants", "eight_invariants"): "invariants.eight_invariants",
    ("invariants", "gauss_curvature"): "invariants.gauss_curvature",
    ("invariants", "mean_curvature"): "invariants.mean_curvature",
    ("invariants", "invariant_k"): "invariants.invariant_k",
    ("invariants", "oracle_invariants"): "invariants.oracle_invariants",
    ("invariants", "oracle_frame_derivatives"): "invariants.oracle_frame_derivatives",
    ("verification", "sample_general_points"): "verification.sample_general_points",
    ("verification", "check_oracle_equivalence"): "verification.check_oracle_equivalence",
    ("verification", "check_identity_suite"): "verification.check_identity_suite",
    ("verification", "check_frame_gram"): "verification.check_frame_gram",
    ("verification", "check_derivative_formulas"): "verification.check_derivative_formulas",
    ("verification", "check_defining_property"): "verification.check_defining_property",
    ("verification", "check_family_targets"): "verification.check_family_targets",
    ("jets", "jet_eval"): "jets.jet_eval",
}

# (module, class, method) -> layer name
METHODS = {
    ("profile", "ProfileCurve", "f_jet"): "profile.f_jet",
    ("profile", "Directrix", "phi_jet"): "profile.phi_jet",
    ("expressions", "Expr", "eval"): "expressions.eval",
    ("odeint", "HermitePath", "__call__"): "odeint.dense",
    ("jets", "Jet", "__init__"): "jets.Jet",
    ("minkowski", "Vec4", "__init__"): "minkowski.Vec4",
}

# Boundaries that keep one span per call; the rest only aggregate.
SPANS = {
    "cli.main", "cli.build_surface", "quadrature", "profile.g_from_f",
    "odeint.rk4_path", "families.generate", "families.integrate_autonomous",
    "families.directrix", "surface.embed", "surface.classify_point",
    "invariants.eight_invariants", "invariants.oracle_invariants",
    "invariants.oracle_frame_derivatives",
} | {name for (mod, _), name in BOUNDARIES.items() if mod == "verification"}

# Boundaries too hot and too deep to time: counted only, so their time stays
# in the caller's self time.
COUNT_ONLY = {"expressions.eval"}

# (parent, child) call pairs counted separately, for ratios.
PAIRS = {
    ("families.directrix", "odeint.rk4_path"),
    ("verification.sample_general_points", "surface.classify_point"),
}

CHECKS = [name for (mod, fn), name in BOUNDARIES.items()
          if mod == "verification" and fn.startswith("check_")]


class Tracer:
    def __init__(self):
        self._stack = []      # frames: [name, child_time, span_id]
        self._next_id = 0
        self._originals = []  # (owner, attribute, original) to restore
        self.spans = []       # (id, parent_id, name, start, end)
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.pairs = Counter()
        self.extra = Counter()

    def reset(self):
        """Forget the counts and times; spans are kept until written."""
        for table in (self.calls, self.total, self.self_time, self.pairs, self.extra):
            table.clear()

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn, before=None, after=None):
        if name in COUNT_ONLY:
            return self._count(name, fn)
        stack, calls, pairs = self._stack, self.calls, self.pairs
        total, self_time = self.total, self.self_time
        keep = name in SPANS
        pair_parents = {p for p, c in PAIRS if c == name}
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            calls[name] += 1
            if parent is not None and parent[0] in pair_parents:
                pairs[(parent[0], name)] += 1
            if before is not None:
                args = before(args)
            span_id = None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id if keep else (parent[2] if parent else None)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                total[name] += elapsed
                self_time[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if keep:
                    self.spans.append((span_id, parent[2] if parent else None,
                                       name, start, end))
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attribute, wrapper):
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self):
        """Wrap every boundary on every meridian4 module binding it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == "meridian4" or name.startswith("meridian4."))}
        specials = {
            "quadrature": (lambda a: (self._wrap("quadrature.integrand", a[0]),) + a[1:],
                           None),
            "odeint.rk4_path": (lambda a: (self._wrap("odeint.rhs", a[0]),) + a[1:],
                                self._count_steps),
            "verification.sample_general_points": (None, self._count_accepted),
        }
        for (mod, fn_name), name in BOUNDARIES.items():
            original = getattr(modules.get("meridian4." + mod), fn_name, None)
            if original is None:
                continue   # the layer no longer exists; its counters read 0
            wrapper = self._wrap(name, original, *specials.get(name, (None, None)))
            for module in modules.values():
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attribute, wrapper)
        for (mod, cls_name, method), name in METHODS.items():
            cls = getattr(modules.get("meridian4." + mod), cls_name, None)
            if cls is not None and method in vars(cls):
                self._patch(cls, method, self._wrap(name, vars(cls)[method]))

    def uninstall(self):
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _count_steps(self, path):
        self.extra["odeint.steps"] += len(path.ts) - 1

    def _count_accepted(self, points):
        self.extra["verification.accepted"] += len(points)

    def layer_metrics(self, points):
        """Per-layer metrics of the calls recorded since the last reset.
        `points` is the number of output rows or verified points."""
        c, t, s = self.calls, self.total, self.self_time
        frames = ("surface.tangent_frame", "surface.normal_frame", "surface.normal_pair")
        oracle = ("invariants.oracle_invariants", "invariants.oracle_frame_derivatives")
        drawn = self.pairs[("verification.sample_general_points", "surface.classify_point")]
        count = {
            "quadrature.calls": c["quadrature"],
            "quadrature.integrand_evals": c["quadrature.integrand"],
            "profile.g_from_f.calls": c["profile.g_from_f"],
            "odeint.rk4_path.calls": c["odeint.rk4_path"],
            "odeint.steps": self.extra["odeint.steps"],
            "odeint.rhs_evals": c["odeint.rhs"],
            "odeint.dense_evals": c["odeint.dense"],
            "families.generate.calls": c["families.generate"],
            "families.integrate_autonomous.calls": c["families.integrate_autonomous"],
            "families.directrix.rk4_paths": self.pairs[("families.directrix",
                                                        "odeint.rk4_path")],
            "surface.point_data.calls": c["surface.point_data"],
            "surface.classify_point.calls": c["surface.classify_point"],
            "surface.frames.calls": sum(c[n] for n in frames),
            "surface.embed.calls": c["surface.embed"],
            "profile.f_jet.calls": c["profile.f_jet"],
            "profile.phi_jet.calls": c["profile.phi_jet"],
            "expressions.eval.calls": c["expressions.eval"],
            "jets.jet_eval.calls": c["jets.jet_eval"],
            "jets.Jet.constructed": c["jets.Jet"],
            "minkowski.Vec4.constructed": c["minkowski.Vec4"],
            "invariants.eight_invariants.calls": c["invariants.eight_invariants"],
            "invariants.oracle.calls": sum(c[n] for n in oracle),
            "cli.main.calls": c["cli.main"],
        }
        ratio = {
            "surface.point_data_per_point": c["surface.point_data"] / points,
            "verification.sample_accept_ratio":
                self.extra["verification.accepted"] / drawn if drawn else 0.0,
        }
        seconds = {
            "quadrature.self_s": s["quadrature"],
            "profile.g_from_f.s": t["profile.g_from_f"],
            "odeint.self_s": s["odeint.rk4_path"],
            "families.generate.s": t["families.generate"],
            "families.directrix.s": t["families.directrix"],
            "surface.point_data.s": t["surface.point_data"],
            "invariants.eight_invariants.s": t["invariants.eight_invariants"],
            "invariants.oracle.s": sum(t[n] for n in oracle),
            "verification.checks.s": sum(t[n] for n in CHECKS),
            "cli.build_surface.s": t["cli.build_surface"],
            "cli.self_s": s["cli.main"],
        }
        return count, ratio, seconds
