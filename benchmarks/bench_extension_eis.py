"""Extension: the EIS warehouse study (the paper's future work).

Builds a warehouse from the SAP database, runs the power test on it,
and computes the break-even point against querying SAP directly with
Open SQL — the decision the paper says customers must make.
"""

from repro.sim.clock import format_duration
from repro.warehouse.eis import EisWarehouse, run_breakeven


def test_extension_eis_warehouse(benchmark, r3_30, bench_sf):
    study = benchmark.pedantic(
        lambda: run_breakeven(r3_30, bench_sf), rounds=1, iterations=1,
    )
    print()
    print(study.render())
    benchmark.extra_info["breakeven_rounds"] = round(study.rounds, 2)
    # The paper's conclusion: construction costs the same order as one
    # power test, so the warehouse only pays off under repeated
    # analytical load — and then it pays off fast.
    assert 0.1 < study.rounds < 10
    assert study.warehouse_total_s < study.open_total_s


def test_extension_eis_incremental_maintenance(benchmark, r3_30,
                                               bench_sf, data):
    from repro.tpcd.dbgen import generate_refresh_orders
    from repro.reports.updatefuncs import run_uf1_sap

    warehouse = EisWarehouse.build_from_sap(r3_30)
    refresh = generate_refresh_orders(data, seed=99)
    run_uf1_sap(r3_30, refresh)
    keys = [row[0] for row in refresh.orders]

    def run():
        return warehouse.propagate_new_orders(r3_30, keys)

    cost = benchmark.pedantic(run, rounds=1, iterations=1)
    per_order = cost / max(len(keys), 1)
    print()
    print(f"propagated {len(keys)} new documents in "
          f"{format_duration(cost)} ({per_order:.2f}s per document)")
    count = warehouse.db.execute(
        "SELECT COUNT(*) FROM orders WHERE o_orderkey >= ?",
        (min(keys),),
    ).scalar()
    assert count == len(keys)
    benchmark.extra_info["per_document_s"] = round(per_order, 3)
