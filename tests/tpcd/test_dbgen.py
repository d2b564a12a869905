
import pytest
from hypothesis import given, settings, strategies as st

from repro.tpcd.dbgen import (
    CURRENT_DATE,
    END_DATE,
    NATIONS,
    REGIONS,
    START_DATE,
    delete_keys,
    generate,
    generate_refresh_orders,
    generate_update_pairs,
)


@pytest.fixture(scope="module")
def data():
    return generate(0.001, seed=7)


class TestCardinalities:
    def test_fixed_tables(self, data):
        assert len(data.region) == 5
        assert len(data.nation) == 25

    def test_scaled_tables(self, data):
        assert len(data.supplier) == 10
        assert len(data.part) == 200
        assert len(data.customer) == 150
        assert len(data.orders) == 1500

    def test_partsupp_four_per_part(self, data):
        assert len(data.partsupp) == 4 * len(data.part)

    def test_lineitems_one_to_seven_per_order(self, data):
        per_order: dict[int, int] = {}
        for row in data.lineitem:
            per_order[row[0]] = per_order.get(row[0], 0) + 1
        assert set(per_order) == {row[0] for row in data.orders}
        assert all(1 <= n <= 7 for n in per_order.values())

    def test_row_counts_helper(self, data):
        counts = data.row_counts()
        assert counts["lineitem"] == len(data.lineitem)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            generate(0)


class TestDomains:
    def test_nation_keys_reference_regions(self, data):
        region_keys = {row[0] for row in data.region}
        assert all(row[2] in region_keys for row in data.nation)

    def test_region_names(self, data):
        assert [row[1] for row in data.region] == REGIONS

    def test_nation_names(self, data):
        assert [row[1] for row in data.nation] == [n for n, _r in NATIONS]

    def test_lineitem_value_domains(self, data):
        for row in data.lineitem:
            assert 1 <= row[4] <= 50          # quantity
            assert 0.0 <= row[6] <= 0.10      # discount
            assert 0.0 <= row[7] <= 0.08      # tax
            assert row[8] in ("R", "A", "N")
            assert row[9] in ("F", "O")

    def test_date_consistency(self, data):
        orderdates = {row[0]: row[4] for row in data.orders}
        for row in data.lineitem:
            orderdate = orderdates[row[0]]
            assert START_DATE <= orderdate <= END_DATE
            shipdate, receiptdate = row[10], row[12]
            assert shipdate > orderdate
            assert receiptdate > shipdate

    def test_returnflag_follows_receiptdate(self, data):
        for row in data.lineitem:
            if row[12] <= CURRENT_DATE:
                assert row[8] in ("R", "A")
            else:
                assert row[8] == "N"

    def test_linestatus_follows_shipdate(self, data):
        for row in data.lineitem:
            assert row[9] == ("F" if row[10] <= CURRENT_DATE else "O")

    def test_totalprice_matches_lineitems(self, data):
        by_order: dict[int, float] = {}
        for row in data.lineitem:
            value = row[5] * (1 + row[7]) * (1 - row[6])
            by_order[row[0]] = by_order.get(row[0], 0.0) + value
        for order in data.orders[:50]:
            assert order[3] == pytest.approx(by_order[order[0]], abs=0.02)

    def test_orderstatus_from_linestatus(self, data):
        statuses: dict[int, set] = {}
        for row in data.lineitem:
            statuses.setdefault(row[0], set()).add(row[9])
        for order in data.orders:
            expected = statuses[order[0]]
            if expected == {"F"}:
                assert order[2] == "F"
            elif expected == {"O"}:
                assert order[2] == "O"
            else:
                assert order[2] == "P"

    def test_foreign_keys_valid(self, data):
        partkeys = {row[0] for row in data.part}
        suppkeys = {row[0] for row in data.supplier}
        custkeys = {row[0] for row in data.customer}
        assert all(row[1] in custkeys for row in data.orders)
        for row in data.lineitem[:500]:
            assert row[1] in partkeys and row[2] in suppkeys

    def test_lineitem_supplier_is_a_partsupp_supplier(self, data):
        pairs = {(row[0], row[1]) for row in data.partsupp}
        for row in data.lineitem[:500]:
            assert (row[1], row[2]) in pairs


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = generate(0.0005, seed=3)
        b = generate(0.0005, seed=3)
        assert a.lineitem == b.lineitem
        assert a.orders == b.orders

    def test_different_seed_differs(self):
        a = generate(0.0005, seed=3)
        b = generate(0.0005, seed=4)
        assert a.lineitem != b.lineitem


class TestRefresh:
    def test_refresh_orders_beyond_max_key(self, data):
        refresh = generate_refresh_orders(data)
        assert min(row[0] for row in refresh.orders) == \
            data.max_orderkey + 1
        assert len(refresh.orders) == max(1, round(len(data.orders)
                                                   * 0.001))

    def test_delete_keys_exist(self, data):
        keys = delete_keys(data)
        existing = {row[0] for row in data.orders}
        assert all(k in existing for k in keys)
        assert len(keys) == len(set(keys))


class TestUpdatePairs:
    """Independent draws collide at these sizes: SF 0.002 with 8 pairs
    (24 keys, 23 distinct) and SF 0.001 with 32 pairs (64, 63)."""

    @pytest.mark.parametrize("sf, pairs", [(0.002, 8), (0.001, 32)])
    def test_no_order_is_deleted_twice(self, sf, pairs):
        data = generate(sf)
        existing = {row[0] for row in data.orders}
        drawn = [delete_keys(data, seed=321 + i) for i in range(pairs)]
        assert len({k for keys in drawn for k in keys}) < sum(map(len, drawn))
        update_sets = generate_update_pairs(data, pairs)
        taken: set[int] = set()
        for (_refresh, keys), own in zip(update_sets, drawn):
            assert len(keys) == len(own) == len(set(keys))
            assert set(keys) <= existing
            assert taken.isdisjoint(keys)
            # only the keys an earlier pair took were redrawn
            assert set(own) - taken <= set(keys)
            if taken.isdisjoint(own):
                assert keys == own
            taken.update(keys)

    def test_pairs_without_a_collision_are_the_independent_draws(self):
        data = generate(0.002)
        for i, (refresh, keys) in enumerate(generate_update_pairs(data, 2)):
            assert keys == delete_keys(data, seed=321 + i)
            assert refresh.orders == generate_refresh_orders(
                data, seed=123 + i,
                start_key=data.max_orderkey + 1 + i * 3).orders


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.0002, max_value=0.002))
def test_scaling_is_monotone_and_valid(sf):
    data = generate(sf, seed=1)
    assert len(data.orders) == max(1, round(1_500_000 * sf))
    assert len(data.lineitem) >= len(data.orders)
