"""The TPC-D query suite (Q1–Q17) in standard SQL.

Queries use the TPC-D default substitution parameters.  Q11's fraction
is scale-dependent (0.0001 / SF per the specification), so the suite is
produced by :func:`build_queries`.

Documented deviations from the 1995 specification text:

* No derived tables in FROM: Q8 and Q9 are written in their standard
  flattened form (identical results).
* Q13 in TPC-D 1.0 was a small, fast single-table query (the paper
  measures it at 8–25 seconds); the 1.0 text is not in wide
  circulation, so we use a selective single-table orders query with
  the same cost profile.
* Q15 uses a view exactly as the spec does; the harness creates and
  drops it around the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QuerySpec:
    """One benchmark query: SQL plus optional view setup/teardown."""

    number: int
    title: str
    sql: str
    setup_views: list[tuple[str, str]] = field(default_factory=list)
    deviation: str | None = None

    @property
    def name(self) -> str:
        return f"Q{self.number}"


def build_queries(scale_factor: float = 0.01) -> dict[int, QuerySpec]:
    """The 17 power-test queries for a database at ``scale_factor``."""
    q11_fraction = 0.0001 / scale_factor
    queries = [
        QuerySpec(1, "Pricing Summary Report", """
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""),
        QuerySpec(2, "Minimum Cost Supplier", """
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone,
       s_comment
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND p_size = 15 AND p_type LIKE '%BRASS'
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND ps_supplycost = (
      SELECT MIN(ps2.ps_supplycost)
      FROM partsupp ps2, supplier s2, nation n2, region r2
      WHERE p_partkey = ps2.ps_partkey AND s2.s_suppkey = ps2.ps_suppkey
        AND s2.s_nationkey = n2.n_nationkey
        AND n2.n_regionkey = r2.r_regionkey AND r2.r_name = 'EUROPE')
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100
"""),
        QuerySpec(3, "Shipping Priority", """
SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10
"""),
        QuerySpec(4, "Order Priority Checking", """
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= DATE '1993-07-01'
  AND o_orderdate < DATE '1993-07-01' + INTERVAL '3' MONTH
  AND EXISTS (SELECT * FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""),
        QuerySpec(5, "Local Supplier Volume", """
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1994-01-01'
  AND o_orderdate < DATE '1994-01-01' + INTERVAL '1' YEAR
GROUP BY n_name
ORDER BY revenue DESC
"""),
        QuerySpec(6, "Forecasting Revenue Change", """
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01'
  AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""),
        QuerySpec(7, "Volume Shipping", """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       EXTRACT(YEAR FROM l_shipdate) AS l_year,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
  AND c_nationkey = n2.n_nationkey
  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
       OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
  AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
GROUP BY n1.n_name, n2.n_name, EXTRACT(YEAR FROM l_shipdate)
ORDER BY supp_nation, cust_nation, l_year
"""),
        QuerySpec(8, "National Market Share", """
SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year,
       SUM(CASE WHEN n2.n_name = 'BRAZIL'
                THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
       / SUM(l_extendedprice * (1 - l_discount)) AS mkt_share
FROM part, supplier, lineitem, orders, customer, nation n1, nation n2,
     region
WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
  AND l_orderkey = o_orderkey AND o_custkey = c_custkey
  AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
  AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey
  AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
  AND p_type = 'ECONOMY ANODIZED STEEL'
GROUP BY EXTRACT(YEAR FROM o_orderdate)
ORDER BY o_year
""", deviation="flattened derived table (identical result)"),
        QuerySpec(9, "Product Type Profit Measure", """
SELECT n_name AS nation, EXTRACT(YEAR FROM o_orderdate) AS o_year,
       SUM(l_extendedprice * (1 - l_discount)
           - ps_supplycost * l_quantity) AS sum_profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
  AND ps_partkey = l_partkey AND p_partkey = l_partkey
  AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
  AND p_name LIKE '%green%'
GROUP BY n_name, EXTRACT(YEAR FROM o_orderdate)
ORDER BY nation, o_year DESC
""", deviation="flattened derived table (identical result)"),
        QuerySpec(10, "Returned Item Reporting", """
SELECT c_custkey, c_name,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1993-10-01'
  AND o_orderdate < DATE '1993-10-01' + INTERVAL '3' MONTH
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address,
         c_comment
ORDER BY revenue DESC
LIMIT 20
"""),
        QuerySpec(11, "Important Stock Identification", f"""
SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
FROM partsupp, supplier, nation
WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
  AND n_name = 'GERMANY'
GROUP BY ps_partkey
HAVING SUM(ps_supplycost * ps_availqty) > (
    SELECT SUM(ps2.ps_supplycost * ps2.ps_availqty) * {q11_fraction}
    FROM partsupp ps2, supplier s2, nation n2
    WHERE ps2.ps_suppkey = s2.s_suppkey
      AND s2.s_nationkey = n2.n_nationkey AND n2.n_name = 'GERMANY')
ORDER BY value DESC
"""),
        QuerySpec(12, "Shipping Modes and Order Priority", """
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority = '1-URGENT'
                  OR o_orderpriority = '2-HIGH'
                THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                 AND o_orderpriority <> '2-HIGH'
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '1994-01-01'
  AND l_receiptdate < DATE '1994-01-01' + INTERVAL '1' YEAR
GROUP BY l_shipmode
ORDER BY l_shipmode
"""),
        QuerySpec(13, "High-Value Order Priorities", """
SELECT o_orderpriority, COUNT(*) AS order_count,
       SUM(o_totalprice) AS total_value
FROM orders
WHERE o_orderdate >= DATE '1995-01-01'
  AND o_orderdate < DATE '1995-01-01' + INTERVAL '3' MONTH
  AND o_totalprice > 250000
GROUP BY o_orderpriority
ORDER BY o_orderpriority
""", deviation="TPC-D 1.0 Q13 approximation: selective single-table "
               "orders query matching the paper's sub-minute runtimes"),
        QuerySpec(14, "Promotion Effect", """
SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END)
       / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= DATE '1995-09-01'
  AND l_shipdate < DATE '1995-09-01' + INTERVAL '1' MONTH
"""),
        QuerySpec(15, "Top Supplier", """
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier, revenue
WHERE s_suppkey = supplier_no
  AND total_revenue = (SELECT MAX(total_revenue) FROM revenue)
ORDER BY s_suppkey
""", setup_views=[("revenue", """
SELECT l_suppkey AS supplier_no,
       SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
FROM lineitem
WHERE l_shipdate >= DATE '1996-01-01'
  AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
GROUP BY l_suppkey
""")]),
        QuerySpec(16, "Parts/Supplier Relationship", """
SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45'
  AND p_type NOT LIKE 'MEDIUM POLISHED%'
  AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier
                         WHERE s_comment LIKE '%Customer%Complaints%')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""),
        QuerySpec(17, "Small-Quantity-Order Revenue", """
SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23'
  AND p_container = 'MED BOX'
  AND l_quantity < (SELECT 0.2 * AVG(l2.l_quantity) FROM lineitem l2
                    WHERE l2.l_partkey = p_partkey)
"""),
    ]
    return {spec.number: spec for spec in queries}


def run_query(db, spec: QuerySpec):
    """Execute one query spec on an engine Database, handling views."""
    for view_name, view_sql in spec.setup_views:
        db.create_view(view_name, view_sql)
    try:
        return db.execute(spec.sql)
    finally:
        for view_name, _sql in spec.setup_views:
            db.drop_view(view_name)
