"""Per-layer metrics of the traced run.

Layers are named by ``repro`` package. :data:`TARGETS` lists the public
functions the traced run wraps (see :mod:`ddabench.spans`); the span
aggregates give calls and self seconds, while counts come from the
engines' return values (:class:`~repro.engine.results.StepRecord`),
``engine.metrics`` and the device ledgers.
"""

from __future__ import annotations

from repro.util.timing import PIPELINE_MODULES

_PRECONDITIONERS = (
    "repro.solvers.preconditioners:IdentityPreconditioner",
    "repro.solvers.preconditioners:JacobiPreconditioner",
    "repro.solvers.preconditioners:BlockJacobiPreconditioner",
    "repro.solvers.preconditioners:SSORAIPreconditioner",
    "repro.solvers.preconditioners:ILU0Preconditioner",
    "repro.solvers.polynomial:NeumannPreconditioner",
    "repro.domain.solve:DistributedPreconditioner",
    "repro.domain.solve:DomainBlockJacobi",
    "repro.domain.solve:AdditiveSchwarz",
)

_PRIMITIVES = (
    "repro.primitives.compact:stream_compact",
    "repro.primitives.compact:partition_by_label",
    "repro.primitives.radix_sort:radix_sort_pairs",
    "repro.primitives.radix_sort:radix_sort_keys",
    "repro.primitives.reduce:device_reduce",
    "repro.primitives.reduce:segment_boundaries",
    "repro.primitives.reduce:segmented_reduce",
    "repro.primitives.scan:inclusive_scan",
    "repro.primitives.scan:exclusive_scan",
    "repro.primitives.scatter:scatter_add",
    "repro.primitives.scatter:segment_sum",
    "repro.primitives.scatter:segment_min",
    "repro.primitives.scatter:segment_max",
    "repro.primitives.sorted_search:lower_bound",
    "repro.primitives.sorted_search:sorted_search",
)

#: ``(span name, "module:qualname")`` of every wrapped public function.
TARGETS = (
    ("contact.broad_phase", "repro.contact.broad_phase:broad_phase_pairs"),
    ("contact.broad_phase",
     "repro.contact.broad_phase:broad_phase_pairs_python"),
    ("contact.narrow_phase", "repro.contact.narrow_phase:narrow_phase"),
    ("contact.transfer", "repro.contact.transfer:transfer_contacts"),
    ("contact.init",
     "repro.contact.initialization:initialize_contacts_classified"),
    ("contact.init",
     "repro.contact.initialization:initialize_contacts_unclassified"),
    ("contact.open_close.build",
     "repro.contact.open_close:OpenCloseDriver.build"),
    ("contact.open_close.sweep",
     "repro.contact.open_close:OpenCloseDriver.sweep"),
    ("assembly.diagonal_system", "repro.engine.physics:diagonal_system"),
    ("assembly.contact_system", "repro.engine.physics:contact_system"),
    ("assembly.assemble", "repro.assembly.global_matrix:assemble_gpu"),
    ("assembly.assemble", "repro.assembly.global_matrix:assemble_serial"),
    *(("assembly.plan", f"repro.assembly.symbolic:AssemblyPlan.{m}")
      for m in ("build", "matches", "assemble", "replay")),
    ("spmv.hsbcsr_spmv", "repro.spmv.hsbcsr:hsbcsr_spmv"),
    ("spmv.from_block_matrix",
     "repro.spmv.hsbcsr:HSBCSRMatrix.from_block_matrix"),
    ("solvers.pcg", "repro.solvers.cg:pcg"),
    ("solvers.pcg", "repro.domain.solve:distributed_pcg"),
    ("solvers.precond_build",
     "repro.solvers.preconditioners:make_preconditioner"),
    ("solvers.precond_build",
     "repro.domain.solve:make_domain_preconditioner"),
    *(("solvers.precond_apply", f"{cls}.apply") for cls in _PRECONDITIONERS),
    *(("primitives", target) for target in _PRIMITIVES),
    ("gpu.launch", "repro.gpu.kernel:VirtualDevice.launch"),
    ("gpu.launch", "repro.gpu.kernel:RoutedVirtualDevice.launch"),
    ("domain.partition", "repro.domain.partition:partition_blocks"),
    ("domain.split", "repro.domain.assembly:split_matrix"),
    ("domain.spmv", "repro.domain.assembly:domain_spmv"),
    ("domain.exchange", "repro.domain.halo:HaloExchanger.exchange"),
    ("domain.allreduce", "repro.domain.halo:HaloExchanger.allreduce"),
)

#: Kernels reported by modelled seconds (summed over every ledger of the
#: run): the top kernels of the three workloads at this commit. The rest
#: is ``gpu.modelled_s.other``.
KERNELS = (
    "hsbcsr_stage1", "hsbcsr_stage2", "hsbcsr_diag", "cg_vector_ops",
    "bj_apply", "ssor_ai_apply", "segmented_reduce",
    "serial_nondiagonal_build", "serial_scatter_assembly",
    "serial_narrow_phase", "domain_spmv_offdiag", "pcie_allreduce",
)

#: Spans reported as ``<span>.calls`` besides their ``.self_s``.
_COUNTED = (
    "contact.broad_phase", "contact.open_close.sweep", "assembly.assemble",
    "spmv.hsbcsr_spmv", "solvers.pcg", "solvers.precond_apply",
    "gpu.launch", "domain.spmv", "domain.exchange",
)
#: Spans reported by self seconds only.
_SELF_ONLY = (
    "engine.step", "contact.narrow_phase", "contact.transfer",
    "contact.init", "contact.open_close.build", "assembly.diagonal_system",
    "assembly.contact_system", "assembly.plan", "spmv.from_block_matrix",
    "solvers.precond_build", "domain.split",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    untraced, recorder, *, build_s: float, partitions: int,
    overhead_frac: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``untraced`` are the run's untraced episodes (engine wall/modelled
    per module and every count come from them — the traced episodes
    repeat them bit for bit); ``recorder`` holds the traced episodes'
    spans.
    """
    steps = sum(len(ep.records) for ep in untraced)
    details = [ep.detail for ep in untraced]

    def total(key: str) -> float:
        return sum(d[key] for d in details)

    def counter(name: str) -> float:
        return sum(d["counters"].get(name, 0) for d in details)

    out: dict[str, tuple[float, str]] = {}
    for module in PIPELINE_MODULES:
        out[f"engine.{module}.wall_s"] = (
            sum(ep.module_wall.get(module, 0.0) for ep in untraced), "s")
        out[f"engine.{module}.modelled_s"] = (
            sum(d["modelled_by_module"].get(module, 0.0) for d in details),
            "s")
    records = [r for ep in untraced for r in ep.records]
    out["engine.retries_per_step"] = (
        _ratio(sum(r.retries for r in records), steps), "count")
    out["engine.oc_iters_per_step"] = (
        _ratio(sum(r.open_close_iterations for r in records), steps), "count")
    out["meshing.build_s"] = (build_s, "s")
    out["contact.transfer.hit_ratio"] = (_ratio(
        counter("contact_transfer.hits"),
        counter("contact_transfer.hits") + counter("contact_transfer.misses"),
    ), "ratio")
    out["contact.contacts_per_step"] = (
        _ratio(sum(r.n_contacts for r in records), steps), "count")
    out["assembly.symbolic_reuse_ratio"] = (_ratio(
        counter("assembly.symbolic_reuse"), counter("open_close.sweeps"),
    ), "ratio")
    out["solvers.cg_iters_per_solve"] = (
        _ratio(total("cg_iterations"), total("solves")), "count")
    out["solvers.rung_escalations"] = (
        counter("solver.rung_escalations"), "count")
    for name in _COUNTED:
        out[f"{name}.calls"] = (float(recorder.calls(name)), "count")
        out[f"{name}.self_s"] = (recorder.self_s(name), "s")
    for name in _SELF_ONLY:
        out[f"{name}.self_s"] = (recorder.self_s(name), "s")
    out["primitives.self_s"] = (recorder.self_s("primitives"), "s")
    out["gpu.launches_per_step"] = (_ratio(total("launches"), steps), "count")
    flops, nbytes = total("flops"), total("bytes")
    out["gpu.flops_per_step"] = (_ratio(flops, steps), "flop")
    out["gpu.bytes_per_step"] = (_ratio(nbytes, steps), "B-computed")
    out["gpu.ops_per_byte"] = (_ratio(flops, nbytes), "flop/B-computed")
    kernel_s = {k: sum(d["kernel_s"].get(k, 0.0) for d in details)
                for k in KERNELS}
    for k, seconds in kernel_s.items():
        out[f"gpu.modelled_s.{k}"] = (seconds, "s")
    out["gpu.modelled_s.other"] = (
        total("ledger_s") - sum(kernel_s.values()), "s")
    out["domain.partition_s"] = (
        _ratio(recorder.total_s("domain.partition"), partitions), "s")
    out["domain.allreduce.calls"] = (
        float(recorder.calls("domain.allreduce")), "count")
    out["domain.halo_bytes_per_step"] = (
        _ratio(counter("domain.halo_bytes"), steps), "B")
    out["domain.imbalance"] = (
        max((d["gauges"].get("domain.imbalance", 0.0) for d in details),
            default=0.0), "ratio")
    out["domain.modelled_s"] = (total("domain_modelled_s"), "s")
    out["obs.trace_overhead_frac"] = (overhead_frac, "ratio")
    return out


def ledger_detail(engine) -> dict:
    """Counts one finished episode leaves on its engine and ledgers."""
    ledgers = [engine.device, *getattr(engine, "domain_devices", ())]
    kernel_s: dict[str, float] = {}
    launches = 0
    flops = nbytes = ledger_s = 0.0
    for dev in ledgers:
        for r in dev.records:
            kernel_s[r.name] = kernel_s.get(r.name, 0.0) + r.seconds
            c = r.counters
            flops += c.flops
            nbytes += (c.global_bytes_read + c.global_bytes_written
                       + c.texture_bytes)
            ledger_s += r.seconds
        launches += len(dev.records)
    registry = engine.metrics
    cg = registry.histograms.get("cg.iterations")
    return {
        "kernel_s": kernel_s,
        "launches": launches,
        "flops": flops,
        "bytes": nbytes,
        "ledger_s": ledger_s,
        "modelled_by_module": engine.device.time_by_module(),
        "counters": {k: c.value for k, c in registry.counters.items()},
        "gauges": {k: g.value for k, g in registry.gauges.items()},
        "cg_iterations": cg.sum if cg is not None else 0.0,
        "solves": cg.count if cg is not None else 0,
        "domain_modelled_s": max(
            (d.total_time for d in ledgers[1:]), default=0.0),
    }
