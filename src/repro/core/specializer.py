"""The data specializer: the paper's primary contribution, end to end.

``DataSpecializer`` statically constructs, from a program fragment and an
input partition, the pair the paper's signature describes::

    Fragment × Input-Partition →
        (All-Inputs → Cache × Result)            -- cache loader
      × (Cache × All-Inputs → Result)            -- cache reader

Pipeline (Sections 3–4):

1. inline user-library calls (the fragment must be one non-recursive
   procedure),
2. SSA-style join normalization, inserting ``v = v`` phi assignments
   (Section 4.1; optional),
3. type check,
4. dependence analysis over the partition (Section 3.1),
5. associative rewriting to enlarge independent subterms (Section 4.2;
   optional, then re-analyze),
6. caching analysis — the Figure 3 constraint solver (Section 3.2),
7. cache-size limiting to a byte bound (Section 4.3; optional),
8. splitting into loader + reader + cache layout (Section 3.3).
"""

from __future__ import annotations

from ..analysis.caching import CachingAnalysis, CachingOptions
from ..analysis.costs import CostModel
from ..analysis.dependence import dependence_analysis
from ..analysis.index import StructuralIndex
from ..analysis.loops import single_valuedness
from ..analysis.reaching import reaching_definitions
from ..lang import ast_nodes as A
from ..lang.errors import SpecializationError
from ..lang.ops import TRIVIAL_COST_THRESHOLD
from ..lang.parser import parse_program
from ..lang.pretty import format_function
from ..lang.typecheck import check_program
from ..obs import NULL_OBS, resolve_obs
from ..runtime.batch import BatchKernel
from ..runtime.compiler import compile_function
from ..runtime.interp import CostMeter, Interpreter
from ..transform.limiter import limit_cache
from ..transform.reassoc import reassociate
from ..transform.split import split
from .frontend import front_end_instance
from .partition import InputPartition


class SpecializerOptions(object):
    """Policy configuration for one specialization run."""

    def __init__(
        self,
        ssa=True,
        reassoc=True,
        reassoc_float=True,
        allow_speculation=False,
        cache_bound=None,
        trivial_threshold=TRIVIAL_COST_THRESHOLD,
        max_steps=None,
    ):
        #: Section 4.1 join-point normalization (phi-only variable caching).
        self.ssa = ssa
        #: Section 4.2 associative rewriting.
        self.reassoc = reassoc
        #: Allow reassociating floating-point chains (the paper's default,
        #: with an off switch for applications where rounding matters).
        self.reassoc_float = reassoc_float
        #: Section 7.1 weakened rule 3 (hoist-to-entry speculation).
        self.allow_speculation = allow_speculation
        #: Section 4.3 cache-size bound in bytes (None = unlimited).
        self.cache_bound = cache_bound
        #: Rule 6 triviality threshold on the static cost scale.
        self.trivial_threshold = trivial_threshold
        #: Interpreter step budget per run (None = the interpreter
        #: default), applied on both the scalar path and the batch
        #: backend's per-row fallback so runaway loops are bounded
        #: everywhere.
        self.max_steps = max_steps

    def replace(self, **overrides):
        merged = dict(
            ssa=self.ssa,
            reassoc=self.reassoc,
            reassoc_float=self.reassoc_float,
            allow_speculation=self.allow_speculation,
            cache_bound=self.cache_bound,
            trivial_threshold=self.trivial_threshold,
            max_steps=self.max_steps,
        )
        merged.update(overrides)
        return SpecializerOptions(**merged)


class Specialization(object):
    """The product of specializing one fragment on one input partition."""

    def __init__(
        self,
        partition,
        original,
        loader,
        reader,
        layout,
        caching,
        type_info,
        options,
        limiter_trace=None,
        obs=None,
    ):
        self.partition = partition
        #: The analyzed fragment (post inline/SSA/reassoc) — the baseline
        #: all measurements compare against.
        self.original = original
        self.loader = loader
        self.reader = reader
        self.layout = layout
        self.caching = caching
        self.type_info = type_info
        self.options = options
        self.limiter_trace = limiter_trace
        #: Telemetry bundle (:data:`repro.obs.NULL_OBS` when disabled);
        #: codegen spans land here.
        self.obs = obs if obs is not None else NULL_OBS
        self._interp = Interpreter(max_steps=options.max_steps)
        self._compiled = {}
        self._batch = {}
        #: Memoized invariant-parameter → dirty-slot map and the sliced
        #: delta loaders derived from it (incremental refills).
        self._delta_map = None
        self._delta_loaders = {}

    # -- identification ------------------------------------------------------

    @property
    def function_name(self):
        return self.partition.function_name

    @property
    def varying(self):
        return self.partition.varying

    @property
    def cache_size_bytes(self):
        return self.layout.size_bytes

    # -- interpreted execution --------------------------------------------------

    def new_cache(self):
        return self.layout.new_instance()

    def _interp_for(self, max_steps):
        """The shared interpreter, or a per-call one under a tighter
        step budget (a supervisor deadline layered on the options)."""
        if max_steps is None:
            return self._interp
        budget = self.options.max_steps
        if budget is not None:
            max_steps = min(max_steps, budget)
        return Interpreter(max_steps=max_steps)

    def run_original(self, args, max_steps=None):
        """Run the unspecialized fragment; returns (result, cost)."""
        meter = CostMeter()
        result = self._interp_for(max_steps).run(
            self.original, args, meter=meter
        )
        return result, meter.total

    def run_loader(self, args, cache=None, max_steps=None):
        """Run the loader; returns (result, cache, cost)."""
        if cache is None:
            cache = self.new_cache()
        meter = CostMeter()
        result = self._interp_for(max_steps).run(
            self.loader, args, cache=cache, meter=meter
        )
        return result, cache, meter.total

    def run_reader(self, cache, args, max_steps=None):
        """Run the reader against a previously filled cache;
        returns (result, cost)."""
        meter = CostMeter()
        result = self._interp_for(max_steps).run(
            self.reader, args, cache=cache, meter=meter
        )
        return result, meter.total

    # -- batched execution ---------------------------------------------------

    def new_batch_cache(self, n):
        """One struct-of-arrays cache shared by ``n`` pixels."""
        return self.layout.new_batch_instance(n)

    def _batch_kernel(self, which, fn, max_steps=None):
        key = which if max_steps is None else (which, max_steps)
        if key not in self._batch:
            budget = self.options.max_steps
            if max_steps is not None:
                budget = (
                    max_steps if budget is None else min(max_steps, budget)
                )
            with self.obs.span(
                "codegen.batch_kernel", function=self.function_name,
                which=which,
            ):
                self._batch[key] = BatchKernel(fn, max_steps=budget)
        return self._batch[key]

    def batch_kernel(self, which, max_steps=None):
        """The memoized :class:`BatchKernel` for ``"original"``,
        ``"loader"``, or ``"reader"`` — optionally under a tighter
        per-row step budget (memoized per budget)."""
        fn = {
            "original": self.original,
            "loader": self.loader,
            "reader": self.reader,
        }[which]
        return self._batch_kernel(which, fn, max_steps=max_steps)

    @property
    def batch_original(self):
        return self._batch_kernel("original", self.original)

    @property
    def batch_loader(self):
        return self._batch_kernel("loader", self.loader)

    @property
    def batch_reader(self):
        return self._batch_kernel("reader", self.reader)

    def run_original_batch(self, columns, n):
        """Run the unspecialized fragment over ``n`` pixels at once;
        returns (values, total_cost)."""
        return self.batch_original.run(columns, n)

    def run_loader_batch(self, columns, n, cache=None):
        """Run the loader over ``n`` pixels at once;
        returns (values, cache, total_cost)."""
        if cache is None:
            cache = self.new_batch_cache(n)
        values, cost = self.batch_loader.run(columns, n, cache=cache)
        return values, cache, cost

    def run_reader_batch(self, cache, columns, n):
        """Run the reader over ``n`` previously loaded pixels;
        returns (values, total_cost)."""
        return self.batch_reader.run(columns, n, cache=cache)

    # -- incremental delta loaders -------------------------------------------

    def invariant_params(self):
        """Loader parameters the cache may depend on (the non-varying
        ones), in declaration order."""
        return tuple(
            name
            for name in self.loader.param_names()
            if name not in self.varying
        )

    def delta_map(self):
        """Memoized invariant-parameter → dirty-slot map (frozensets of
        slot indices).  Derived once per specialization from the loader
        itself, so it is available on persisted artifacts too."""
        if self._delta_map is None:
            from ..transform.split import loader_param_slots

            with self.obs.span(
                "specialize.delta_map", function=self.function_name
            ):
                self._delta_map = loader_param_slots(
                    self.loader, self.layout, self.invariant_params()
                )
        return self._delta_map

    def dirty_slots(self, params):
        """Union of the dirty-slot sets for the given invariant parameter
        names.  An unknown name is conservative: every slot is dirty
        (which drives the session's full-load fallback)."""
        mapping = self.delta_map()
        dirty = set()
        for name in params:
            if name not in mapping:
                return frozenset(range(len(self.layout)))
            dirty |= mapping[name]
        return frozenset(dirty)

    def delta_loader(self, dirty):
        """The sliced loader recomputing exactly the ``dirty`` slots
        (memoized per dirty set; ``None`` for an empty set)."""
        key = frozenset(dirty)
        if key not in self._delta_loaders:
            from ..transform.split import build_delta_loader

            with self.obs.span(
                "specialize.delta_loader",
                function=self.function_name,
                slots=len(key),
            ):
                fn = build_delta_loader(self.loader, key)
                if fn is not None:
                    check_program(A.Program([fn]))
            self._delta_loaders[key] = fn
        return self._delta_loaders[key]

    @staticmethod
    def _delta_key(dirty):
        return "delta[%s]" % ",".join(str(slot) for slot in sorted(dirty))

    def delta_kernel(self, dirty, max_steps=None):
        """The memoized :class:`BatchKernel` refilling ``dirty`` slots."""
        fn = self.delta_loader(dirty)
        if fn is None:
            raise SpecializationError(
                "an empty dirty set has no delta loader"
            )
        return self._batch_kernel(
            self._delta_key(dirty), fn, max_steps=max_steps
        )

    def run_delta(self, args, cache, dirty, max_steps=None):
        """Scalar delta refill: recompute ``dirty`` slots of ``cache``
        in place for one pixel; returns the cost."""
        fn = self.delta_loader(dirty)
        if fn is None:
            return 0
        meter = CostMeter()
        self._interp_for(max_steps).run(fn, args, cache=cache, meter=meter)
        return meter.total

    # -- compiled execution --------------------------------------------------------

    def _compile(self, which, fn):
        if which not in self._compiled:
            with self.obs.span(
                "codegen.compile", function=self.function_name, which=which,
            ):
                self._compiled[which] = compile_function(fn)
        return self._compiled[which]

    @property
    def compiled_original(self):
        return self._compile("original", self.original)

    @property
    def compiled_loader(self):
        return self._compile("loader", self.loader)

    @property
    def compiled_reader(self):
        return self._compile("reader", self.reader)

    # -- artifacts --------------------------------------------------------------------

    # -- guarded execution ---------------------------------------------------

    def guarded(self, table=None, injector=None, log=None, max_steps=None):
        """A :class:`~repro.runtime.guard.GuardedExecutor` wrapping this
        specialization: per-pixel/lane fallback to ``run_original`` on
        evaluation faults, with structured fault logging.  ``max_steps``
        tightens the specialized kernels' step budget (deadlines)."""
        from ..runtime.guard import GuardedExecutor

        return GuardedExecutor(
            self, table=table, injector=injector, log=log,
            max_steps=max_steps,
        )

    @property
    def original_source(self):
        return format_function(self.original)

    @property
    def loader_source(self):
        return format_function(self.loader)

    @property
    def reader_source(self):
        return format_function(self.reader)

    def describe(self):
        lines = [
            "specialization of %s, varying {%s}"
            % (self.function_name, ", ".join(sorted(self.varying))),
            self.layout.describe(),
        ]
        return "\n".join(lines)


class DataSpecializer(object):
    """Specializes functions of one program on chosen input partitions."""

    def __init__(self, program, options=None, obs=None):
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.options = options or SpecializerOptions()
        #: Telemetry bundle: spans over every pipeline stage plus the
        #: ``repro_specializations_total`` / cache-slot metrics
        #: (:data:`repro.obs.NULL_OBS` = disabled, zero overhead).
        self.obs = resolve_obs(obs)
        # Whole-program check up front: errors surface on the original
        # source, not on transformed internals.  A published program
        # (the install cache's) was checked when it was linked, and
        # ``check_program`` returns those results without a walk.
        with self.obs.span("frontend.typecheck"):
            check_program(self.program)

    def specialize(self, fn_name, varying, **overrides):
        """Build a :class:`Specialization` for ``fn_name`` with the given
        varying parameter names.  Keyword overrides patch the specializer
        options for this call only (e.g. ``cache_bound=16``)."""
        obs = self.obs
        with obs.span(
            "specialize", function=fn_name,
            partition=",".join(sorted(varying)),
        ):
            spec = self._specialize_stages(fn_name, varying, overrides)
        if obs.enabled:
            with obs.span("obs.record", phase="specialize"):
                self._record_specialization(spec, fn_name, varying)
        return spec

    def _specialize_stages(self, fn_name, varying, overrides):
        """The eight pipeline stages, each under its own span."""
        obs = self.obs
        options = self.options.replace(**overrides) if overrides else self.options
        try:
            root = self.program.function(fn_name)
        except KeyError:
            raise SpecializationError("no function named %r" % fn_name)
        partition = InputPartition(root, varying)

        # 1-3. Inline library calls, join-point normalization (Section
        # 4.1) and type check: partition-free, so a published program's
        # front end is built once per process.  Work on a private copy
        # from here on.
        fn, type_info = front_end_instance(
            self.program, fn_name, options.ssa, obs
        )

        # 4. Dependence analysis (Section 3.1).
        with obs.span("specialize.dependence"):
            dependence = dependence_analysis(fn, partition.varying)

        # 5. Associative rewriting (Section 4.2), then re-analyze.
        if options.reassoc:
            with obs.span("specialize.reassoc"):
                rewriter = reassociate(
                    fn, dependence, float_ok=options.reassoc_float
                )
                if rewriter.rewrites:
                    type_info = self._check(fn)
                dependence = dependence_analysis(fn, partition.varying)

        # 6. Caching analysis (Section 3.2, Figure 3).
        with obs.span("specialize.caching"):
            index = StructuralIndex(fn)
            reaching = reaching_definitions(fn)
            single_valued = single_valuedness(fn, index)
            costs = CostModel(index)
            caching = CachingAnalysis(
                fn,
                index,
                reaching,
                dependence,
                single_valued,
                costs,
                CachingOptions(
                    ssa_mode=options.ssa,
                    trivial_threshold=options.trivial_threshold,
                    allow_speculation=options.allow_speculation,
                ),
            ).solve()

        # 7. Cache-size limiting (Section 4.3).
        limiter_trace = None
        if options.cache_bound is not None:
            with obs.span("specialize.limit"):
                limiter_trace = limit_cache(
                    caching, costs, options.cache_bound
                )

        # 8. Splitting (Section 3.3).
        with obs.span("specialize.split"):
            result = split(fn, caching, type_info)
            self._check(result.loader)
            self._check(result.reader)

        return Specialization(
            partition,
            fn,
            result.loader,
            result.reader,
            result.layout,
            caching,
            type_info,
            options,
            limiter_trace=limiter_trace,
            obs=obs,
        )

    def _record_specialization(self, spec, fn_name, varying):
        """Publish one specialization's registry metrics: the run
        counter plus the static per-slot cache analytics."""
        from ..obs.cachestats import record_cache_metrics, slot_profile

        partition = ",".join(sorted(varying))
        self.obs.registry.counter(
            "repro_specializations_total",
            "Specializer pipeline runs.",
            ("shader", "partition"),
        ).inc(shader=fn_name, partition=partition)
        record_cache_metrics(
            self.obs.registry, slot_profile(spec), fn_name, partition
        )

    @staticmethod
    def _check(fn):
        infos = check_program(A.Program([fn]))
        return infos[fn.name]


def specialize(program, fn_name, varying, **options):
    """One-shot convenience API.

    ``program`` may be source text or a parsed :class:`Program`.  Options
    are :class:`SpecializerOptions` fields passed as keywords.
    """
    return DataSpecializer(program, SpecializerOptions(**options)).specialize(
        fn_name, varying
    )
