"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``specialize``
    Run the data specializer on a kernel-language source file and print
    any of: the labeled fragment, the cache loader, the cache reader, and
    the cache layout.

``run``
    Execute a function from a source file on scalar arguments, printing
    the result and its abstract cost.

``pe``
    Code-specialize (partially evaluate) a function on concrete fixed
    values and print the residual program (the baseline the paper
    compares data specialization against).

``cfg``
    Dump a function's control-flow graph (Section 7.1 representation).

Values on the command line are scalars: an argument with a ``.`` or
exponent parses as float, otherwise as int.  (vec3-valued inputs are a
library-level feature; drive those from Python.)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core.annotate import annotate_function
from .core.specializer import DataSpecializer, SpecializerOptions
from .lang.errors import (
    EvalError, SceneError, SourceError, SpecializationError,
)
from .lang.parser import parse_program
from .lang.pretty import format_function
from .runtime import native
from .runtime.interp import Interpreter
from .runtime.plan import resolve_tile


def _parse_scalar(text):
    text = text.strip()
    try:
        if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
            return float(text)
        return int(text)
    except ValueError:
        raise SystemExit("cannot parse %r as a scalar value" % text)


def _tile_arg(text):
    """The argparse ``type=`` for ``--tile``: resolved once at parse
    time, so a bad lane count exits 2 with the resolver's message."""
    try:
        return resolve_tile(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _workers_arg(text):
    """The argparse ``type=`` for ``repro serve --workers``, which is
    accepted and ignored.  The old spellings (a count, ``auto``,
    ``fork`` or ``fork:N``) still parse so existing command lines
    start; anything else exits 2 naming them."""
    spec = text.strip().lower()
    if spec in ("auto", "fork"):
        return text
    floor = 0
    if spec.startswith("fork:"):
        spec, floor = spec[len("fork:"):], 1
    try:
        if int(spec) >= floor:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "bad workers spec %r (expected a count, 'auto', or 'fork[:N]')"
        % (text,)
    )


#: ``--tile`` help, shared by every session-driving subcommand.
_TILE_HELP = ("lanes per deadline tile: a supervised batch adjust that "
              "blows its step deadline degrades only the tiles (rounded "
              "to whole scan lines) whose pixels blew it")


def _parse_bindings(text):
    """``a=1,b=2.5`` → dict."""
    bindings = {}
    if not text:
        return bindings
    for item in text.split(","):
        if "=" not in item:
            raise SystemExit("expected name=value, found %r" % item)
        name, value = item.split("=", 1)
        bindings[name.strip()] = _parse_scalar(value)
    return bindings


def _load_program(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_program(handle.read())
    except OSError as exc:
        raise SystemExit("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise SystemExit("%s: not UTF-8 text: %s" % (path, exc))
    except SourceError as exc:
        raise SystemExit("%s: %s" % (path, exc))


def _pick_function(program, name):
    if name is None:
        if len(program.functions) == 1:
            return program.functions[0].name
        raise SystemExit(
            "file defines %d functions; pick one with --function (%s)"
            % (len(program.functions), ", ".join(program.function_names()))
        )
    if name not in program.function_names():
        raise SystemExit(
            "no function %r (have: %s)"
            % (name, ", ".join(program.function_names()))
        )
    return name


def cmd_specialize(args, out):
    program = _load_program(args.file)
    fn_name = _pick_function(program, args.function)
    varying = {v.strip() for v in args.varying.split(",") if v.strip()}
    options = SpecializerOptions(
        ssa=not args.no_ssa,
        reassoc=not args.no_reassoc,
        allow_speculation=args.speculate,
        cache_bound=args.cache_bound,
    )
    try:
        spec = DataSpecializer(program, options).specialize(fn_name, varying)
    except (SourceError, SpecializationError) as exc:
        raise SystemExit("specialization failed: %s" % exc)

    sections = args.show or ["layout"]
    if "all" in sections:
        sections = ["labels", "loader", "reader", "layout"]
    for section in sections:
        if section == "labels":
            out.write("/* fragment with caching labels */\n")
            out.write(annotate_function(spec.original, spec.caching) + "\n\n")
        elif section == "loader":
            out.write("/* cache loader */\n")
            out.write(spec.loader_source + "\n\n")
        elif section == "reader":
            out.write("/* cache reader */\n")
            out.write(spec.reader_source + "\n\n")
        elif section == "layout":
            out.write(spec.layout.describe() + "\n")
    if args.save:
        from .core.persist import save_specialization

        save_specialization(spec, args.save)
        out.write("saved specialization to %s\n" % args.save)
    return 0


def cmd_replay(args, out):
    """Run a saved specialization: loader on --load-args, reader on each
    --read-args occurrence."""
    from .core.persist import load_specialization

    # Typed integrity/specialization errors propagate to main(), which
    # reports them as a one-line message with exit code 2.
    spec = load_specialization(
        args.directory,
        on_mismatch="respecialize" if args.respecialize else "error",
    )
    load_args = [_parse_scalar(v) for v in args.load_args.split(",")]
    try:
        result, cache, cost = spec.run_loader(load_args)
    except EvalError as exc:
        raise SystemExit("loader failed: %s" % exc)
    out.write("loader: result=%r cost=%d cache=%r\n" % (result, cost, cache))
    for read_args in args.read_args or []:
        values = [_parse_scalar(v) for v in read_args.split(",")]
        try:
            result, cost = spec.run_reader(cache, values)
        except EvalError as exc:
            raise SystemExit("reader failed: %s" % exc)
        out.write("reader: result=%r cost=%d\n" % (result, cost))
    return 0


def cmd_run(args, out):
    program = _load_program(args.file)
    fn_name = _pick_function(program, args.function)
    values = [_parse_scalar(v) for v in args.args.split(",")] if args.args else []
    try:
        from .lang.typecheck import check_program

        check_program(program)
        result, cost = Interpreter(program).run_metered(fn_name, values)
    except (SourceError, EvalError) as exc:
        raise SystemExit("execution failed: %s" % exc)
    out.write("result: %r\ncost:   %d\n" % (result, cost))
    return 0


def cmd_pe(args, out):
    from .baseline.pe import specialize_code

    program = _load_program(args.file)
    fn_name = _pick_function(program, args.function)
    fixed = _parse_bindings(args.fix)
    try:
        result = specialize_code(program, fn_name, fixed)
    except (SourceError, SpecializationError) as exc:
        raise SystemExit("code specialization failed: %s" % exc)
    out.write("/* residual program (code specialization) */\n")
    out.write(format_function(result.residual) + "\n")
    out.write(
        "/* generation: %d evaluator steps, abstract cost %d */\n"
        % (result.work, result.generation_cost)
    )
    return 0


def _supervision_policy(args):
    """A SupervisorPolicy from render/health flags, or None when no
    supervision flag was given (render only; health always supervises)."""
    from .runtime.supervise import SupervisorPolicy

    kwargs = {}
    if args.deadline_steps is not None:
        kwargs["deadline_steps"] = args.deadline_steps
    if args.breaker_threshold is not None:
        kwargs["breaker_threshold"] = args.breaker_threshold
    if not kwargs and not getattr(args, "supervise", True):
        return None
    return SupervisorPolicy(**kwargs)


def _session_options(args, **extra):
    """The ``RenderSession`` execution keywords every session-driving
    subcommand builds from its flags, plus the subcommand's ``extra``
    ones, so ``trace``, ``stats`` and ``serve`` run the path ``render``
    runs."""
    options = {"backend": args.backend, "tile": args.tile}
    options.update(extra)
    return options


def _chaos_injector(args):
    """A FaultInjector from the render injection flags (kernel faults,
    which imply guarded execution), or None."""
    kernel_rate = getattr(args, "inject_rate", 0.0) or 0.0
    if kernel_rate <= 0.0:
        return None
    from .runtime.faultinject import FaultInjector

    return FaultInjector(seed=args.inject_seed, kernel_rate=kernel_rate)


def _fault_summary(fault_log):
    if fault_log is None:
        return None
    return {
        "faults": len(fault_log),
        "phases": fault_log.phase_counts(),
        "dropped": fault_log.dropped,
        "summary": fault_log.summary(),
    }


def _health_payload(supervisor):
    """The one supervisor-health schema every JSON surface shares
    (``render --json``, ``health --json``, the exporters): rung keys
    are the canonical ``repro.obs.schema.RUNGS`` names."""
    if supervisor is None:
        return None
    return supervisor.health().as_dict()


def _resolve_obs_flag(args):
    """An Observability when any telemetry output was requested."""
    from .obs import Observability

    if getattr(args, "trace_out", None):
        return Observability()
    return None


def cmd_render(args, out):
    """Render one of the built-in shaders through a drag session."""
    from .shaders.render import RenderSession
    from .shaders.sources import SHADERS

    if args.shader not in SHADERS:
        raise SystemExit(
            "no shader %d (have %s)"
            % (args.shader, ", ".join(str(i) for i in sorted(SHADERS)))
        )
    injector = _chaos_injector(args)
    obs = _resolve_obs_flag(args)
    session = RenderSession(
        args.shader, width=args.size, height=args.size, obs=obs,
        **_session_options(
            args, guard=args.guard or args.inject_rate > 0.0,
            policy=_supervision_policy(args), incremental=args.incremental,
        )
    )
    param = args.param or session.spec_info.control_params[0]
    try:
        edit = session.begin_edit(
            param, dispatch=args.dispatch, injector=injector
        )
    except SourceError as exc:
        raise SystemExit("specialization failed: %s" % exc)
    image = edit.frame(session.controls)
    adjusted = edit.frame(
        session.controls_with(**{param: session.controls[param] * 1.25})
    )
    incremental = None
    if args.incremental and not args.dispatch:
        # Drag one *invariant* parameter so the reload exercises the
        # delta path: only the slots that parameter dirties refill.
        spec = edit.specialization
        others = [
            name for name in session.spec_info.control_params
            if name != param
        ] or [param]
        edited = others[0]
        value = session.controls[edited]
        controls = session.controls_with(**{
            edited: value * 1.25 if isinstance(value, float) else value + 1
        })
        reloaded = edit.frame(controls)
        dirty = spec.dirty_slots({edited})
        incremental = {
            "edited": edited,
            "path": edit.last_path,
            "load_cost": reloaded.total_cost,
            "dirty_slots": sorted(dirty),
            "total_slots": len(spec.layout),
        }
    health = (
        session.supervisor.health() if session.supervisor is not None
        else None
    )
    if args.json:
        from .obs.schema import canonical_rung

        json.dump(
            {
                "shader": args.shader,
                "name": session.spec_info.name,
                "width": session.scene.width,
                "height": session.scene.height,
                "backend": edit.backend,
                "config": edit.plan.as_dict(),
                "param": param,
                "load_cost": image.total_cost,
                "adjust_cost": adjusted.total_cost,
                "adjust_cost_per_pixel": adjusted.cost_per_pixel,
                "cache_bytes_per_pixel": edit.cache_bytes_per_pixel,
                "last_rung": canonical_rung(edit.last_rung),
                "fault_log": _fault_summary(edit.fault_log),
                "health": _health_payload(session.supervisor),
                "incremental": incremental,
            },
            out, indent=2, sort_keys=True,
        )
        out.write("\n")
    else:
        out.write(
            "shader %d (%s): %dx%d via %s backend (tile %s), drag %r\n"
            % (args.shader, session.spec_info.name, session.scene.width,
               session.scene.height, edit.backend, edit.plan.tile, param)
        )
        out.write(
            "load:   cost %d (%.1f/pixel), cache %dB/pixel\n"
            % (image.total_cost, image.cost_per_pixel,
               edit.cache_bytes_per_pixel)
        )
        out.write(
            "adjust: cost %d (%.1f/pixel)\n"
            % (adjusted.total_cost, adjusted.cost_per_pixel)
        )
        if incremental is not None:
            out.write(
                "incremental: edit %r via %s path, cost %d "
                "(%d/%d slots dirty)\n"
                % (incremental["edited"], incremental["path"],
                   incremental["load_cost"], len(incremental["dirty_slots"]),
                   incremental["total_slots"])
            )
        if edit.fault_log is not None:
            out.write("guard:  %s\n" % edit.fault_log.summary())
        if health is not None:
            out.write("supervision:\n")
            for line in health.summary().splitlines():
                out.write("  %s\n" % line)
    if args.trace_out:
        from .obs.export import write_chrome_trace

        obs.merge_stage_metrics()
        write_chrome_trace(args.trace_out, obs.tracer, obs.registry)
        out.write("wrote %s (%d spans)\n"
                  % (args.trace_out, len(obs.tracer.spans)))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(adjusted.to_ppm())
        out.write("wrote %s\n" % args.out)
    session.close()
    return 0


def _render_service_health(payload, out, as_json):
    """Render a daemon's /health payload: service summary lines plus
    the same per-tenant HealthSnapshot text the in-process path shows."""
    if as_json:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
        return 0
    from .runtime.supervise import HealthSnapshot

    service = payload.get("service", {})
    admission = service.get("admission", {})
    sessions = service.get("sessions", {})
    store = service.get("store", {})
    shed = ", ".join(
        "%s %d" % item for item in sorted(admission.get("shed", {}).items())
    ) or "none"
    out.write(
        "service: %s, up %.1fs\n"
        % (
            "draining" if service.get("draining") else "serving",
            service.get("uptime_s", 0.0),
        )
    )
    out.write(
        "sessions: %d/%d; inflight %d/%d; shed: %s\n"
        % (
            sessions.get("count", 0), sessions.get("max", 0),
            admission.get("inflight", 0), admission.get("max_inflight", 0),
            shed,
        )
    )
    out.write(
        "store: %d artifacts (%d builds, %d loads, %d memo hits, "
        "%d lock files)\n"
        % (
            store.get("artifacts", 0), store.get("builds", 0),
            store.get("loads", 0), store.get("hits", 0),
            store.get("lock_files", 0),
        )
    )
    if service.get("native_builtins"):
        out.write("%s\n" % native.summary(service["native_builtins"]))
    recovery = service.get("recovery") or {}
    if recovery:
        recovered = recovery.get("store") or {}
        out.write(
            "recovery: store %d verified, "
            "%d respecialized, %d dropped, %d stale locks\n"
            % (
                recovered.get("verified", 0),
                recovered.get("respecialized", 0),
                recovered.get("dropped", 0),
                recovered.get("stale_locks", 0),
            )
        )
    tenants = payload.get("tenants", {})
    for tenant in sorted(tenants):
        out.write("tenant %s:\n" % tenant)
        for line in HealthSnapshot(tenants[tenant]).summary().splitlines():
            out.write("  %s\n" % line)
    if not tenants:
        out.write("tenants: none\n")
    return 0


def cmd_health(args, out):
    """Drive a supervised, guarded drag session — optionally under
    injected cache corruption — and report the supervisor's health.
    With ``--url``, probe a running ``repro serve`` daemon instead."""
    if args.url:
        from .serve.client import ClientError, fetch_health

        try:
            payload = fetch_health(args.url, timeout_s=args.timeout)
        except ClientError as exc:
            raise SystemExit("health probe failed: %s" % exc)
        return _render_service_health(payload, out, args.json)
    if args.shader is None:
        raise SystemExit(
            "shader index required (or probe a daemon with --url)"
        )
    from .runtime.faultinject import FaultInjector
    from .shaders.render import RenderSession
    from .shaders.sources import SHADERS

    if args.shader not in SHADERS:
        raise SystemExit(
            "no shader %d (have %s)"
            % (args.shader, ", ".join(str(i) for i in sorted(SHADERS)))
        )
    # A guarded drag never tiles, so ``health`` takes no ``--tile``.
    session = RenderSession(
        args.shader, width=args.size, height=args.size,
        backend=args.backend, guard=True, policy=_supervision_policy(args),
    )
    param = args.param or session.spec_info.control_params[0]
    edit = session.begin_edit(param)
    edit.frame(session.controls)
    # Corrupt caches over the first half of the drag, then stop — the
    # report shows the breaker tripping and the probe recovery.
    corrupt_until = args.drags // 2 if args.corrupt_rate > 0.0 else 0
    for i in range(args.drags):
        if i < corrupt_until and edit.caches is not None:
            FaultInjector(
                seed=args.inject_seed + i, cache_rate=args.corrupt_rate
            ).corrupt_caches(edit.caches)
        value = session.controls[param] * (1.0 + 0.05 * (i + 1))
        edit.frame(session.controls_with(**{param: value}))
    snapshot = session.supervisor.health()
    native_section = native.report()
    if args.json:
        json.dump(
            dict(_health_payload(session.supervisor),
                 native_builtins=native_section),
            out, indent=2, sort_keys=True,
        )
        out.write("\n")
    else:
        out.write(
            "shader %d (%s): %d drags of %r on the %s backend\n"
            % (args.shader, session.spec_info.name, args.drags, param,
               edit.backend)
        )
        for line in snapshot.summary().splitlines():
            out.write("  %s\n" % line)
        out.write("  %s\n" % native.summary(native_section))
    session.close()
    return 0


def cmd_serve(args, out):
    """Run the fault-tolerant multi-tenant render daemon (see
    ``docs/operations.md``)."""
    from .serve import RenderService, ServiceConfig
    from .serve.http import run_daemon

    config = ServiceConfig(
        store_dir=args.store,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        tenant_sessions=args.tenant_sessions,
        tenant_inflight=args.tenant_inflight,
        idle_timeout_s=args.idle_timeout,
        drain_timeout_s=args.drain_timeout,
        retry_after_s=args.retry_after,
        seed=args.seed,
        max_pixels=args.max_pixels,
        policy=_supervision_policy(args),
        recover=not args.no_recover,
        **_session_options(args)
    )
    service = RenderService(config)
    return run_daemon(service, host=args.host, port=args.port, out=out)


def _drive_local_service(shader, size, requests, slow_ms=None):
    """Stand up an in-process RenderService on a throwaway store and
    drive ``requests`` render requests through the HTTP layer's own
    request path (:func:`repro.serve.http.serve_request`), so the SLO
    tracker and flight recorder count exactly what a daemon counts,
    reply encoding included.  Returns ``(service, store_dir)`` —
    callers drain and remove the store."""
    import tempfile

    from .serve import RenderService, ServiceConfig
    from .serve.http import serve_request

    kwargs = {}
    if slow_ms is not None:
        kwargs["flight_slow_ms"] = slow_ms
    store_dir = tempfile.mkdtemp(prefix="repro-slo-")
    service = RenderService(ServiceConfig(store_dir=store_dir, **kwargs))
    sid = service.create_session("cli", shader, size, size)["session"]
    for _ in range(requests):
        serve_request(
            service, "POST", "/sessions/%s/render" % sid,
            lambda: ("render", 200, service.render(sid), {}),
            tenant="cli",
        )
    return service, store_dir


def _cleanup_local_service(service, store_dir):
    import shutil

    service.drain()
    shutil.rmtree(store_dir, ignore_errors=True)


def _print_slo(report, out):
    out.write(
        "SLO report: window %gs, worst burn rate %.2f\n"
        % (report["window_s"], report["worst_burn_rate"])
    )
    for entry in report["objectives"]:
        out.write(
            "  %s [%s]%s\n"
            % (entry["name"], entry["kind"],
               " — " + entry["description"] if entry["description"]
               else "")
        )
        for scope in ("window", "lifetime"):
            stats = entry[scope]
            attainment = stats.get("attainment")
            line = "    %-8s n=%-5d attainment=%s target=%.2f%% burn=%.2f" % (
                scope, stats.get("count") or 0,
                "%.2f%%" % (attainment * 100.0)
                if attainment is not None else "n/a",
                stats["target"] * 100.0, stats["burn_rate"],
            )
            if entry["kind"] == "latency":
                for q in ("p50_ms", "p99_ms"):
                    value = stats.get(q)
                    if value is not None:
                        line += " %s=%.2fms" % (q[:3], value)
            out.write(line + "\n")


def cmd_slo(args, out):
    """Report service-level objectives: latency attainment and
    error-budget burn over the live metrics histograms.  With
    ``--url``, read a running daemon's ``/health``; otherwise drive an
    in-process service for a few requests and report that."""
    if args.url:
        from .serve.client import ClientError, fetch_health

        try:
            payload = fetch_health(args.url, timeout_s=args.timeout)
        except ClientError as exc:
            raise SystemExit("slo probe failed: %s" % exc)
        report = payload.get("slo")
        if report is None:
            raise SystemExit(
                "daemon at %s reports no slo section" % args.url
            )
    else:
        service, store_dir = _drive_local_service(
            args.shader, args.size, args.requests
        )
        try:
            report = service.slo.report(service.obs.registry)
        finally:
            _cleanup_local_service(service, store_dir)
    if args.json:
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _print_slo(report, out)
    return 0


def _print_flight(dump, out):
    out.write(
        "flight recorder: %d recorded, %d dropped, %d entries held, "
        "%d span trees\n"
        % (dump["recorded"], dump["dropped"], len(dump["entries"]),
           dump["span_trees"])
    )
    for entry in dump["entries"]:
        flags = "".join(
            flag[0] for flag in ("shed", "error", "slow")
            if entry.get(flag)
        )
        out.write(
            "  #%-4d %-16s %-8s %3s %8.2fms %-8s %s\n"
            % (entry["seq"], entry.get("request_id") or "-",
               entry.get("endpoint") or "-", entry.get("status"),
               entry.get("ms") or 0.0,
               entry.get("rung") or "-",
               ("[%s] " % flags if flags else "")
               + ("%d spans" % len(entry["spans"])
                  if "spans" in entry else ""))
        )


def _cmd_trace_flight(args, out):
    """``repro trace --flight``: dump the flight recorder — a running
    daemon's via ``--url``, or a locally driven service's."""
    if args.url:
        from .serve.client import ClientError, ServiceClient

        try:
            dump = ServiceClient(args.url, timeout_s=args.timeout).flight()
        except ClientError as exc:
            raise SystemExit("flight probe failed: %s" % exc)
    else:
        # slow_ms=0 marks every request interesting, so the demo dump
        # arrives with span trees attached.
        service, store_dir = _drive_local_service(
            args.shader if args.shader is not None else 1,
            args.size, args.adjusts + 1, slow_ms=0.0,
        )
        try:
            dump = service.flight_dump()
        finally:
            _cleanup_local_service(service, store_dir)
    if args.json:
        json.dump(dump, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _print_flight(dump, out)
    return 0


def cmd_trace(args, out):
    """Trace one shader's full pipeline — parse, specialize, load,
    adjust — and report per-stage timings (optionally as a Chrome
    trace file for chrome://tracing / Perfetto)."""
    from .obs import Observability
    from .obs.export import write_chrome_trace
    from .shaders.render import RenderSession
    from .shaders.sources import SHADERS

    if args.flight or args.url:
        return _cmd_trace_flight(args, out)
    if args.shader is None:
        raise SystemExit("shader index required (or use --flight)")
    if args.shader not in SHADERS:
        raise SystemExit(
            "no shader %d (have %s)"
            % (args.shader, ", ".join(str(i) for i in sorted(SHADERS)))
        )
    obs = Observability()
    session = RenderSession(
        args.shader, width=args.size, height=args.size, obs=obs,
        **_session_options(args)
    )
    param = args.param or session.spec_info.control_params[0]
    try:
        edit = session.begin_edit(param)
    except SourceError as exc:
        raise SystemExit("specialization failed: %s" % exc)
    edit.frame(session.controls)
    for i in range(args.adjusts):
        value = session.controls[param] * (1.0 + 0.05 * (i + 1))
        edit.frame(session.controls_with(**{param: value}))
    obs.merge_stage_metrics()
    out.write(
        "shader %d (%s): %dx%d via %s backend, drag %r — "
        "%d spans, %.3fms traced\n"
        % (args.shader, session.spec_info.name, session.scene.width,
           session.scene.height, edit.backend, param,
           len(obs.tracer.spans), obs.tracer.total_seconds() * 1e3)
    )
    rows = sorted(
        obs.tracer.stage_totals().items(),
        key=lambda item: -item[1]["total_seconds"],
    )
    out.write("%-24s %5s %10s %10s\n"
              % ("stage", "spans", "total ms", "median ms"))
    for name, stats in rows:
        out.write(
            "%-24s %5d %10.3f %10.3f\n"
            % (name, stats["count"], stats["total_seconds"] * 1e3,
               stats["median_seconds"] * 1e3)
        )
    if args.out:
        write_chrome_trace(args.out, obs.tracer, obs.registry)
        out.write("wrote %s\n" % args.out)
    session.close()
    return 0


def cmd_stats(args, out):
    """Specialize every shader (all partitions) into one shared metrics
    registry and export it — per-slot cache analytics included."""
    from .obs import Observability
    from .obs.cachestats import record_delta_metrics
    from .obs.export import to_json_lines, to_prometheus
    from .shaders.render import RenderSession
    from .shaders.sources import SHADERS

    obs = Observability()
    for index in sorted(SHADERS):
        session = RenderSession(
            index, width=args.size, height=args.size, obs=obs,
            **_session_options(args)
        )
        for param in session.spec_info.control_params:
            if args.render:
                edit = session.begin_edit(param)
                edit.frame(session.controls)
                edit.frame(session.controls_with(
                    **{param: session.controls[param] * 1.25}
                ))
            else:
                spec = session.specialize(param)
                record_delta_metrics(
                    obs.registry, spec, session.spec_info.name, param
                )
        session.close()
    obs.merge_stage_metrics()
    native_section = native.report()
    native.export(obs.registry)
    if args.format == "prometheus":
        out.write(to_prometheus(obs.registry))
    else:
        out.write(to_json_lines(obs.registry, obs.tracer))
        out.write(json.dumps(
            dict(native_section, kind="native_builtins"), sort_keys=True
        ) + "\n")
    return 0


def cmd_cfg(args, out):
    from .cfg import build_cfg
    from .lang.typecheck import check_program
    from .transform.inline import Inliner

    program = _load_program(args.file)
    fn_name = _pick_function(program, args.function)
    try:
        check_program(program)
        fn = Inliner(program).inline_function(fn_name)
        cfg = build_cfg(fn)
    except (SourceError, SpecializationError) as exc:
        raise SystemExit("cfg construction failed: %s" % exc)
    out.write(cfg.describe() + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data Specialization (Knoblock & Ruf, PLDI 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("specialize", help="split a fragment into loader + reader")
    p.add_argument("file")
    p.add_argument("--function", "-f")
    p.add_argument("--varying", "-v", required=True,
                   help="comma-separated varying parameter names")
    p.add_argument("--cache-bound", type=int, default=None,
                   help="cache byte budget (Section 4.3)")
    p.add_argument("--no-ssa", action="store_true")
    p.add_argument("--no-reassoc", action="store_true")
    p.add_argument("--speculate", action="store_true")
    p.add_argument("--show", action="append",
                   choices=["labels", "loader", "reader", "layout", "all"])
    p.add_argument("--save", default=None,
                   help="persist the loader/reader/layout to a directory")
    p.set_defaults(handler=cmd_specialize)

    p = sub.add_parser("replay", help="run a saved specialization")
    p.add_argument("directory")
    p.add_argument("--load-args", required=True,
                   help="comma-separated arguments for the loader pass")
    p.add_argument("--read-args", action="append",
                   help="arguments for a reader pass (repeatable)")
    p.add_argument("--respecialize", action="store_true",
                   help="rebuild stale/corrupted artifacts from the "
                        "surviving fragment instead of failing")
    p.set_defaults(handler=cmd_replay)

    p = sub.add_parser("run", help="execute a function with cost metering")
    p.add_argument("file")
    p.add_argument("--function", "-f")
    p.add_argument("--args", "-a", default="",
                   help="comma-separated scalar arguments")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("pe", help="code-specialize on fixed values (baseline)")
    p.add_argument("file")
    p.add_argument("--function", "-f")
    p.add_argument("--fix", default="", help="name=value,... fixed inputs")
    p.set_defaults(handler=cmd_pe)

    p = sub.add_parser("cfg", help="dump the control-flow graph")
    p.add_argument("file")
    p.add_argument("--function", "-f")
    p.set_defaults(handler=cmd_cfg)

    p = sub.add_parser("render", help="render a built-in shader (drag session)")
    p.add_argument("shader", type=int, help="shader index (1-10)")
    p.add_argument("--size", type=int, default=32, help="image side length")
    p.add_argument("--param", default=None,
                   help="control parameter to drag (default: first)")
    p.add_argument("--backend", default=None,
                   choices=["scalar", "batch", "auto"],
                   help="execution backend (default: auto — batch "
                        "kernels when NumPy is available)")
    p.add_argument("--tile", type=_tile_arg, default=None,
                   help=_TILE_HELP)
    p.add_argument("--incremental", action="store_true",
                   help="edit-path deltas: after the first full load, an "
                        "invariant-parameter edit refills only the cache "
                        "slots it dirties via a sliced delta loader")
    p.add_argument("--dispatch", action="store_true",
                   help="use Section 7.2 dispatch-code readers")
    p.add_argument("--guard", action="store_true",
                   help="guarded execution: contain evaluation faults "
                        "to the affected pixel (fallback to the "
                        "unspecialized shader)")
    p.add_argument("--inject-rate", type=float, default=0.0,
                   help="forced kernel-fault rate per pixel (implies "
                        "--guard; for fault-tolerance demos)")
    p.add_argument("--inject-seed", type=int, default=0,
                   help="fault-injection seed")
    p.add_argument("--supervise", action="store_true",
                   help="route rendering through the resilient "
                        "supervisor (degradation ladder + breakers)")
    p.add_argument("--deadline-steps", type=int, default=None,
                   help="per-request step budget for specialized "
                        "kernels (implies --supervise)")
    p.add_argument("--breaker-threshold", type=float, default=None,
                   help="per-request pixel-fault rate that counts as a "
                        "bad request for the circuit breaker (implies "
                        "--supervise)")
    p.add_argument("--json", action="store_true",
                   help="emit render metrics, fault summary, and the "
                        "supervisor HealthSnapshot as JSON")
    p.add_argument("--out", default=None, help="write the frame as PPM")
    p.add_argument("--trace-out", default=None,
                   help="trace the run and write a Chrome trace-event "
                        "file (open in chrome://tracing / Perfetto)")
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser(
        "health",
        help="drive a supervised drag session and report supervisor "
             "health (breakers, ladder rungs, incidents)",
    )
    p.add_argument("shader", type=int, nargs="?", default=None,
                   help="shader index (1-10); optional with --url")
    p.add_argument("--url", default=None,
                   help="probe a running `repro serve` daemon at this "
                        "base URL instead of driving a local session")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="HTTP timeout in seconds for --url probes")
    p.add_argument("--size", type=int, default=16, help="image side length")
    p.add_argument("--param", default=None,
                   help="control parameter to drag (default: first)")
    p.add_argument("--backend", default=None,
                   choices=["scalar", "batch", "auto"])
    p.add_argument("--drags", type=int, default=12,
                   help="number of adjust requests to issue")
    p.add_argument("--corrupt-rate", type=float, default=0.0,
                   help="cache-corruption rate injected over the first "
                        "half of the drags (demonstrates breaker trip "
                        "and probe recovery)")
    p.add_argument("--inject-seed", type=int, default=0,
                   help="corruption seed")
    p.add_argument("--deadline-steps", type=int, default=None)
    p.add_argument("--breaker-threshold", type=float, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit the HealthSnapshot as JSON")
    p.set_defaults(handler=cmd_health)

    p = sub.add_parser(
        "serve",
        help="run the fault-tolerant multi-tenant render daemon "
             "(admission control, graceful drain, shared artifact store)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8176,
                   help="TCP port (0 picks an ephemeral port, printed "
                        "on the announce line)")
    p.add_argument("--store", default="repro-store",
                   help="shared artifact-store directory; point several "
                        "daemons at one store to share specializations")
    p.add_argument("--max-sessions", type=int, default=64,
                   help="global live-session cap (create sheds 429 past it)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="global bound on concurrently rendering frames; "
                        "excess requests shed immediately with 429 + "
                        "Retry-After, never queue")
    p.add_argument("--tenant-sessions", type=int, default=16,
                   help="per-tenant session quota")
    p.add_argument("--tenant-inflight", type=int, default=None,
                   help="per-tenant in-flight quota (default: only the "
                        "global bound applies)")
    p.add_argument("--idle-timeout", type=float, default=600.0,
                   help="seconds before an idle session is reaped")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds a SIGTERM/SIGINT drain waits for "
                        "in-flight frames before abandoning them")
    p.add_argument("--retry-after", type=float, default=0.5,
                   help="base Retry-After seconds for shed responses "
                        "(jittered to [base, 2*base) from --seed)")
    p.add_argument("--seed", type=int, default=0,
                   help="service seed (Retry-After jitter)")
    p.add_argument("--max-pixels", type=int, default=16384,
                   help="per-session frame-size ceiling (width*height)")
    p.add_argument("--backend", default=None,
                   choices=["scalar", "batch", "auto"])
    p.add_argument("--workers", type=_workers_arg, default=None,
                   help="accepted and ignored: the fork worker pool was "
                        "removed, because no served frame size ran "
                        "faster on it; every frame is one in-process "
                        "kernel call.  Still takes a count, 'auto' or "
                        "'fork[:N]' so existing command lines start")
    p.add_argument("--tile", type=_tile_arg, default=None,
                   help=_TILE_HELP)
    p.add_argument("--deadline-steps", type=int, default=None,
                   help="per-request step budget for every tenant's "
                        "supervisor")
    p.add_argument("--breaker-threshold", type=float, default=None,
                   help="breaker bad-request threshold for every "
                        "tenant's supervisor")
    p.add_argument("--no-recover", action="store_true",
                   help="skip startup crash recovery (the "
                        "artifact-store sweep)")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser(
        "trace",
        help="trace one shader's pipeline and report per-stage timings",
    )
    p.add_argument("shader", type=int, nargs="?", default=None,
                   help="shader index (1-10); optional with --flight")
    p.add_argument("--size", type=int, default=16, help="image side length")
    p.add_argument("--param", default=None,
                   help="control parameter to drag (default: first)")
    p.add_argument("--backend", default=None,
                   choices=["scalar", "batch", "auto"])
    p.add_argument("--adjusts", type=int, default=4,
                   help="number of adjust requests to trace")
    p.add_argument("--tile", type=_tile_arg, default=None,
                   help=_TILE_HELP)
    p.add_argument("--out", default=None,
                   help="write the Chrome trace-event file here")
    p.add_argument("--flight", action="store_true",
                   help="dump the flight recorder (recent request "
                        "summaries with tail-sampled span trees) "
                        "instead of tracing a pipeline run")
    p.add_argument("--url", default=None,
                   help="with --flight: read a running daemon's "
                        "/debug/flight instead of driving locally")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="HTTP timeout in seconds for --url probes")
    p.add_argument("--json", action="store_true",
                   help="emit the flight dump as JSON")
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser(
        "slo",
        help="report service-level objectives (latency attainment, "
             "shed rate, error-budget burn) from live histograms",
    )
    p.add_argument("--url", default=None,
                   help="read a running `repro serve` daemon's /health "
                        "slo section instead of driving locally")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="HTTP timeout in seconds for --url probes")
    p.add_argument("--shader", type=int, default=1,
                   help="shader index for the local drive")
    p.add_argument("--size", type=int, default=16,
                   help="image side length for the local drive")
    p.add_argument("--requests", type=int, default=8,
                   help="render requests to drive locally")
    p.add_argument("--json", action="store_true",
                   help="emit the SLO report as JSON")
    p.set_defaults(handler=cmd_slo)

    p = sub.add_parser(
        "stats",
        help="specialize every shader and export the metrics registry "
             "(per-slot cache analytics included)",
    )
    p.add_argument("--format", default="prometheus",
                   choices=["prometheus", "json"],
                   help="Prometheus text exposition or JSON lines")
    p.add_argument("--size", type=int, default=8, help="image side length")
    p.add_argument("--backend", default=None,
                   choices=["scalar", "batch", "auto"])
    p.add_argument("--render", action="store_true",
                   help="also run a load+adjust drag per partition so "
                        "runtime counters (frames, fills, hits, "
                        "per-pixel cost histograms) populate too")
    p.add_argument("--tile", type=_tile_arg, default=None,
                   help=_TILE_HELP + " (--render drags)")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser(
        "report",
        help="regenerate the paper's full evaluation (tables + ASCII figures)",
    )
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_report)

    return parser


def cmd_report(args, out):
    from .bench.report import full_report

    text = full_report()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        out.write("wrote %s (%d lines)\n" % (args.out, text.count("\n")))
    else:
        out.write(text)
    return 0


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed our stdout (``repro trace 3 | head``): stop
        # without a traceback.  Point stdout at devnull so the flush at
        # interpreter exit cannot fail on the same pipe again.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SpecializationError, SceneError) as exc:
        # Typed failures (artifact integrity, specialization,
        # supervision exhaustion, an empty frame size) are operational
        # conditions, not bugs: one line on stderr, exit code 2, no
        # traceback.
        err.write("error: %s\n" % exc)
        return 2
