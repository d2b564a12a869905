"""DBGEN-equivalent deterministic data generator.

Reimplements the distributions of TPC's DBGEN tool that the paper's
experiments are sensitive to: table cardinalities per scale factor,
date ranges, value domains (quantity 1–50, discount 0–10 %, tax 0–8 %),
the categorical vocabularies the queries select on (market segments,
priorities, ship modes, part types/brands/containers, nation/region
names), and the part-supplier assignment.  Generation is fully
deterministic for a given (scale factor, seed).
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field

from repro.errors import UsageError

START_DATE = datetime.date(1992, 1, 1)
END_DATE = datetime.date(1998, 8, 2)
CURRENT_DATE = datetime.date(1995, 6, 17)

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTS = ["DELIVER IN PERSON", "COLLECT COD", "NONE",
                  "TAKE BACK RETURN"]
CONTAINERS_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINERS_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
TYPES_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPES_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPES_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished",
    "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
    "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
    "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
    "green", "grey", "honeydew", "hot", "indian", "ivory", "khaki",
    "lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
    "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty",
    "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale",
    "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
    "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
    "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan",
    "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
]
_WORDS = [
    "furiously", "quick", "pending", "final", "ironic", "express", "bold",
    "regular", "special", "silent", "even", "careful", "blithe", "daring",
    "accounts", "packages", "deposits", "requests", "instructions",
    "theodolites", "platelets", "foxes", "pinto", "beans", "asymptotes",
    "dependencies", "excuses", "ideas", "sentiments", "courts",
]

# Base cardinalities at SF = 1.0 (TPC-D 1.0 specification).
BASE_SUPPLIERS = 10_000
BASE_PARTS = 200_000
BASE_CUSTOMERS = 150_000
BASE_ORDERS = 1_500_000
SUPPLIERS_PER_PART = 4


@dataclass
class TpcdData:
    """All generated rows, keyed by original-schema table name."""

    scale_factor: float
    seed: int
    region: list[tuple] = field(default_factory=list)
    nation: list[tuple] = field(default_factory=list)
    supplier: list[tuple] = field(default_factory=list)
    part: list[tuple] = field(default_factory=list)
    partsupp: list[tuple] = field(default_factory=list)
    customer: list[tuple] = field(default_factory=list)
    orders: list[tuple] = field(default_factory=list)
    lineitem: list[tuple] = field(default_factory=list)

    def table(self, name: str) -> list[tuple]:
        return getattr(self, name.lower())

    @property
    def max_orderkey(self) -> int:
        return max((row[0] for row in self.orders), default=0)

    def row_counts(self) -> dict[str, int]:
        return {
            name: len(self.table(name))
            for name in ("region", "nation", "supplier", "part", "partsupp",
                         "customer", "orders", "lineitem")
        }


def _comment(rng: random.Random, max_words: int = 6,
             max_chars: int = 35) -> str:
    count = rng.randint(2, max_words)
    text = " ".join(rng.choice(_WORDS) for _ in range(count))
    return text[:max_chars].rstrip()


def _phone(rng: random.Random, nationkey: int) -> str:
    return (f"{10 + nationkey}-{rng.randint(100, 999)}-"
            f"{rng.randint(100, 999)}-{rng.randint(1000, 9999)}")


def _retail_price(partkey: int) -> float:
    return round(
        (90000 + ((partkey // 10) % 20001) + 100 * (partkey % 1000)) / 100, 2
    )


def _scaled(base: int, sf: float) -> int:
    return max(1, round(base * sf))


def generate(scale_factor: float = 0.01, seed: int = 19970601) -> TpcdData:
    """Generate a TPC-D database at the given scale factor."""
    if scale_factor <= 0:
        raise UsageError(
            f"scale factor must be positive, got {scale_factor}")
    data = TpcdData(scale_factor=scale_factor, seed=seed)
    rng = random.Random(seed)

    for i, name in enumerate(REGIONS):
        data.region.append((i, name, _comment(rng)))
    for i, (name, regionkey) in enumerate(NATIONS):
        data.nation.append((i, name, regionkey, _comment(rng)))

    n_suppliers = _scaled(BASE_SUPPLIERS, scale_factor)
    n_parts = _scaled(BASE_PARTS, scale_factor)
    n_customers = _scaled(BASE_CUSTOMERS, scale_factor)
    n_orders = _scaled(BASE_ORDERS, scale_factor)

    for suppkey in range(1, n_suppliers + 1):
        nationkey = rng.randrange(len(NATIONS))
        # ~0.5% of suppliers carry the Q16 complaint marker.
        comment = _comment(rng, max_chars=30)
        if rng.random() < 0.005:
            comment = f"{comment} Customer xx Complaints"
        data.supplier.append((
            suppkey,
            f"Supplier#{suppkey:09d}",
            _comment(rng, 4),
            nationkey,
            _phone(rng, nationkey),
            round(rng.uniform(-999.99, 9999.99), 2),
            comment,
        ))

    for partkey in range(1, n_parts + 1):
        name = " ".join(rng.sample(COLORS, 5))
        mfgr_no = rng.randint(1, 5)
        brand = f"Brand#{mfgr_no}{rng.randint(1, 5)}"
        p_type = (f"{rng.choice(TYPES_1)} {rng.choice(TYPES_2)} "
                  f"{rng.choice(TYPES_3)}")
        container = f"{rng.choice(CONTAINERS_1)} {rng.choice(CONTAINERS_2)}"
        data.part.append((
            partkey, name, f"Manufacturer#{mfgr_no}", brand, p_type,
            rng.randint(1, 50), container, _retail_price(partkey),
            _comment(rng, 3, max_chars=23),
        ))
        seen_suppliers: set[int] = set()
        for i in range(SUPPLIERS_PER_PART):
            suppkey = (
                (partkey + i * (n_suppliers // SUPPLIERS_PER_PART + 1))
                % n_suppliers
            ) + 1
            # At micro scale factors the stride wraps onto the same
            # supplier; keep (partkey, suppkey) unique.
            if suppkey in seen_suppliers:
                continue
            seen_suppliers.add(suppkey)
            data.partsupp.append((
                partkey, suppkey, rng.randint(1, 9999),
                round(rng.uniform(1.0, 1000.0), 2), _comment(rng),
            ))

    for custkey in range(1, n_customers + 1):
        nationkey = rng.randrange(len(NATIONS))
        data.customer.append((
            custkey,
            f"Customer#{custkey:09d}",
            _comment(rng, 4),
            nationkey,
            _phone(rng, nationkey),
            round(rng.uniform(-999.99, 9999.99), 2),
            rng.choice(SEGMENTS),
            _comment(rng),
        ))

    date_span = (END_DATE - START_DATE).days
    for orderkey in range(1, n_orders + 1):
        _generate_order(data, rng, orderkey, n_customers, n_parts,
                        n_suppliers, date_span)
    return data


def _generate_order(
    data: TpcdData,
    rng: random.Random,
    orderkey: int,
    n_customers: int,
    n_parts: int,
    n_suppliers: int,
    date_span: int,
) -> None:
    custkey = rng.randint(1, n_customers)
    orderdate = START_DATE + datetime.timedelta(days=rng.randint(0, date_span))
    line_count = rng.randint(1, 7)
    total = 0.0
    statuses: set[str] = set()
    for linenumber in range(1, line_count + 1):
        partkey = rng.randint(1, n_parts)
        supp_i = rng.randrange(SUPPLIERS_PER_PART)
        suppkey = (
            (partkey + supp_i * (n_suppliers // SUPPLIERS_PER_PART + 1))
            % n_suppliers
        ) + 1
        quantity = float(rng.randint(1, 50))
        extendedprice = round(quantity * _retail_price(partkey), 2)
        discount = rng.randint(0, 10) / 100.0
        tax = rng.randint(0, 8) / 100.0
        shipdate = orderdate + datetime.timedelta(days=rng.randint(1, 121))
        commitdate = orderdate + datetime.timedelta(days=rng.randint(30, 90))
        receiptdate = shipdate + datetime.timedelta(days=rng.randint(1, 30))
        if receiptdate <= CURRENT_DATE:
            returnflag = rng.choice(["R", "A"])
        else:
            returnflag = "N"
        linestatus = "F" if shipdate <= CURRENT_DATE else "O"
        statuses.add(linestatus)
        total += extendedprice * (1 + tax) * (1 - discount)
        data.lineitem.append((
            orderkey, partkey, suppkey, linenumber, quantity, extendedprice,
            discount, tax, returnflag, linestatus, shipdate, commitdate,
            receiptdate, rng.choice(SHIP_INSTRUCTS), rng.choice(SHIP_MODES),
            _comment(rng, 4),
        ))
    if statuses == {"F"}:
        orderstatus = "F"
    elif statuses == {"O"}:
        orderstatus = "O"
    else:
        orderstatus = "P"
    data.orders.append((
        orderkey, custkey, orderstatus, round(total, 2), orderdate,
        rng.choice(PRIORITIES), f"Clerk#{rng.randint(1, 1000):09d}",
        0, _comment(rng),
    ))


def generate_refresh_orders(
    data: TpcdData, fraction: float = 0.001, seed: int = 424242,
    start_key: int | None = None
) -> TpcdData:
    """New orders/lineitems for UF1 (0.1 % of SF per the TPC-D spec).

    ``start_key`` places the new order keys explicitly; harnesses that
    apply several UF1 sets to one database (the throughput test's
    update stream) use it to keep the sets' keyspaces disjoint.
    """
    rng = random.Random(seed)
    refresh = TpcdData(scale_factor=data.scale_factor, seed=seed)
    n_new = max(1, round(len(data.orders) * fraction))
    n_customers = len(data.customer)
    n_parts = len(data.part)
    n_suppliers = len(data.supplier)
    date_span = (END_DATE - START_DATE).days
    if start_key is None:
        start_key = data.max_orderkey + 1
    for orderkey in range(start_key, start_key + n_new):
        _generate_order(refresh, rng, orderkey, n_customers, n_parts,
                        n_suppliers, date_span)
    return refresh


def delete_keys(data: TpcdData, fraction: float = 0.001,
                seed: int = 737373) -> list[int]:
    """Order keys for UF2 (same count as UF1 inserts)."""
    rng = random.Random(seed)
    n_delete = max(1, round(len(data.orders) * fraction))
    keys = [row[0] for row in data.orders]
    return sorted(rng.sample(keys, min(n_delete, len(keys))))


def generate_update_pairs(
    data: TpcdData, pairs: int
) -> list[tuple[TpcdData, list[int]]]:
    """``pairs`` (UF1 refresh set, UF2 delete keys) tuples for a
    throughput update stream.

    Each UF1 set gets its own order-key range above the loaded data, so
    the pairs can be applied to one database in sequence; likewise no
    order is doomed by two UF2 sets: a key an earlier pair already
    deletes is redrawn from the orders no pair has taken, and only
    then, so a draw without a collision is :func:`delete_keys`'s own.
    The seeds are fixed: the chaos, scale-out and monitor harnesses
    (and their committed baselines) all run exactly these pairs.
    """
    pair_size = max(1, round(len(data.orders) * 0.001))
    taken: set[int] = set()
    pairs_out = []
    for i in range(pairs):
        keys = delete_keys(data, seed=321 + i)
        clashes = taken.intersection(keys)
        if clashes:
            drawn = taken.union(keys)
            free = [row[0] for row in data.orders if row[0] not in drawn]
            redrawn = random.Random(321 + i).sample(
                free, min(len(clashes), len(free)))
            keys = sorted([key for key in keys if key not in clashes]
                          + redrawn)
        taken.update(keys)
        pairs_out.append((
            generate_refresh_orders(
                data, seed=123 + i,
                start_key=data.max_orderkey + 1 + i * pair_size),
            keys))
    return pairs_out
