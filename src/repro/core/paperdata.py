"""The paper's published numbers, transcribed for shape comparison.

All durations in seconds; all sizes in KB, exactly as printed in the
paper.  EXPERIMENTS.md and the shape tests compare reproduced ratios
(not absolute values) against these.
"""

from __future__ import annotations

QUERIES = [f"Q{n}" for n in range(1, 18)]
UPDATES = ["UF1", "UF2"]

#: the scale factor every published table was measured at
SCALE_FACTOR = 0.2

# ---------------------------------------------------------------------------
# Table 2: database sizes in KB (data, indexes)
# ---------------------------------------------------------------------------

TABLE2_ORIGINAL_KB = {
    "REGION": (16, 0), "NATION": (16, 0), "SUPPLIER": (451, 120),
    "PART": (6144, 1792), "PARTSUPP": (32310, 5275),
    "CUSTOMER": (7929, 1463), "ORDER": (52578, 21312),
    "LINEITEM": (171704, 72860),
}
TABLE2_SAP_KB = {
    "REGION": (320, 400), "NATION": (400, 400), "SUPPLIER": (2127, 1884),
    "PART": (79485, 83525), "PARTSUPP": (102045, 44455),
    "CUSTOMER": (37805, 26355), "ORDER": (399190, 125243),
    "LINEITEM": (2191844, 558746),
}
TABLE2_TOTAL_ORIGINAL_KB = (271139, 102822)
TABLE2_TOTAL_SAP_KB = (2813216, 841008)

# ---------------------------------------------------------------------------
# Table 3: batch-input loading times (two parallel processes), seconds
# ---------------------------------------------------------------------------

TABLE3_LOADING_S = {
    "SUPPLIER": 18 * 60,
    "PART": 15 * 3600 + 56 * 60,
    "PARTSUPP": 30 * 3600 + 24 * 60,
    "CUSTOMER": 7 * 3600 + 33 * 60,
    "ORDER+LINEITEM": 25 * 86400 + 19 * 3600 + 55 * 60,
}

# ---------------------------------------------------------------------------
# Tables 4 and 5: TPC-D power test, seconds per query
# ---------------------------------------------------------------------------

TABLE4_22G_S = {
    "rdbms": {
        "Q1": 317, "Q2": 34, "Q3": 355, "Q4": 181, "Q5": 1273, "Q6": 78,
        "Q7": 302, "Q8": 164, "Q9": 554, "Q10": 300, "Q11": 5,
        "Q12": 179, "Q13": 8, "Q14": 301, "Q15": 226, "Q16": 900,
        "Q17": 14, "UF1": 119, "UF2": 108,
    },
    "native": {
        "Q1": 8096, "Q2": 76, "Q3": 1182, "Q4": 432, "Q5": 1325,
        "Q6": 502, "Q7": 2353, "Q8": 962, "Q9": 2166, "Q10": 1362,
        "Q11": 122, "Q12": 2195, "Q13": 21, "Q14": 553, "Q15": 744,
        "Q16": 536, "Q17": 552, "UF1": 2666, "UF2": 529,
    },
    "open": {
        "Q1": 8133, "Q2": 199, "Q3": 11577, "Q4": 511, "Q5": 4102,
        "Q6": 652, "Q7": 2311, "Q8": 1706, "Q9": 9096, "Q10": 1541,
        "Q11": 115, "Q12": 4645, "Q13": 23, "Q14": 687, "Q15": 1158,
        "Q16": 509, "Q17": 727, "UF1": 2666, "UF2": 529,
    },
}

TABLE5_30E_S = {
    "rdbms": {
        "Q1": 369, "Q2": 53, "Q3": 243, "Q4": 105, "Q5": 399, "Q6": 80,
        "Q7": 543, "Q8": 114, "Q9": 522, "Q10": 318, "Q11": 5,
        "Q12": 195, "Q13": 8, "Q14": 383, "Q15": 205, "Q16": 804,
        "Q17": 11, "UF1": 100, "UF2": 108,
    },
    "native": {
        "Q1": 3539, "Q2": 189, "Q3": 542, "Q4": 378, "Q5": 882,
        "Q6": 448, "Q7": 1385, "Q8": 1144, "Q9": 1893, "Q10": 1986,
        "Q11": 277, "Q12": 588, "Q13": 19, "Q14": 625, "Q15": 831,
        "Q16": 196, "Q17": 110, "UF1": 6414, "UF2": 695,
    },
    "open": {
        "Q1": 3378, "Q2": 34, "Q3": 711, "Q4": 398, "Q5": 2247,
        "Q6": 846, "Q7": 1764, "Q8": 997, "Q9": 4034, "Q10": 3469,
        "Q11": 143, "Q12": 576, "Q13": 25, "Q14": 1314, "Q15": 1711,
        "Q16": 202, "Q17": 133, "UF1": 6414, "UF2": 695,
    },
}

# ---------------------------------------------------------------------------
# Table 6: one-table query with an index on quantity, seconds
# ---------------------------------------------------------------------------

TABLE6_S = {
    ("native", "high"): 1, ("native", "low"): 296,
    ("open", "high"): 1, ("open", "low"): 6602,
}

# ---------------------------------------------------------------------------
# Table 7: grouping with a complex aggregation, seconds
# ---------------------------------------------------------------------------

TABLE7_S = {"native": 251, "open": 828}

# ---------------------------------------------------------------------------
# Table 8: table-buffer effectiveness (hit ratio, cost in seconds)
# ---------------------------------------------------------------------------

TABLE8 = {
    "none": (0.00, 6514),
    "small": (0.11, 6651),
    "large": (0.85, 2141),
}
#: SELECT SINGLE lookups against MARA, one per VBAP row
TABLE8_LOOKUPS = 1_200_000

# ---------------------------------------------------------------------------
# Table 9: warehouse extraction, seconds
# ---------------------------------------------------------------------------

TABLE9_S = {
    "REGION": 13, "NATION": 4, "SUPPLIER": 41, "PART": 751,
    "PARTSUPP": 668, "CUSTOMER": 355, "ORDER": 3451, "LINEITEM": 16622,
}
TABLE9_TOTAL_S = 21905


def total(table: dict[str, float], queries_only: bool = False) -> float:
    names = QUERIES if queries_only else QUERIES + UPDATES
    return sum(table[name] for name in names)
