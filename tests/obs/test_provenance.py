"""Schedule provenance: per-load weight/slot records from the
block scheduler."""

from __future__ import annotations

from repro.harness import compile_source, options_for
from repro.obs import TracingObserver
from repro.workloads import WORKLOADS


def _observer(scheduler: str, benchmark: str = "ear"):
    observer = TracingObserver()
    workload = WORKLOADS[benchmark]
    compile_source(workload.source, options_for(scheduler, "base"),
                   workload.name, observer=observer)
    return observer


def _provenance(scheduler: str, benchmark: str = "ear"):
    return _observer(scheduler, benchmark).provenance


def test_balanced_records_weights_and_contributors():
    prov = _provenance("balanced")
    assert len(prov) > 0
    deviating = prov.balanced_deviations()
    assert deviating, "balanced weights should deviate from latency"
    for record in deviating:
        assert record.scheduler == "balanced"
        assert record.indep_contributors > 0
        # Balanced weight = 1 + shared contributions, floored at the
        # hit latency: never more than 1 + contributor count.
        assert record.weight <= 1.0 + record.indep_contributors


def test_traditional_records_match_latency():
    prov = _provenance("traditional")
    assert len(prov) > 0
    for record in prov.records:
        assert record.scheduler == "traditional"
        assert record.weight == record.latency_weight
        assert record.indep_contributors == 0
    assert not prov.balanced_deviations()


def test_slots_are_valid_block_permutation_positions():
    prov = _provenance("balanced")
    for record in prov.records:
        assert record.slot_before >= 0
        assert record.slot_after >= 0
        assert record.hoisted_by == \
            record.slot_before - record.slot_after
    slots_by_block = {}
    for record in prov.records:
        slots_by_block.setdefault(record.block, []).append(
            record.slot_after)
    assert len(slots_by_block) > 1
    # Two loads in one block never land in the same final slot.
    for slots in slots_by_block.values():
        assert len(slots) == len(set(slots))


def test_format_and_json():
    observer = _observer("balanced")
    prov = observer.provenance
    table = prov.format_table(n=5)
    assert "weight" in table and "slot" in table
    # The run manifest's JSON carries the counts, not the records.
    assert observer.summary()["provenance"] == {
        "loads": len(prov),
        "deviating_loads": len(prov.balanced_deviations())}
