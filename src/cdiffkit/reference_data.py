"""Published reference values that the reproduce command recomputes.

Each cell carries its provenance label and is never overwritten: reproduce
prints computed-next-to-published with a per-cell match flag, so a
disagreement is surfaced, not patched.  Each table gives its
characteristic p, the c-set of its maxima (an admissible_c name) and each
function as a descriptor, {"monomial": d} or {"terms": [[e, c], ...]} with
a negative c read in the prime field.

Table 1: max c-differential uniformity over a != 0, c != 0 of x^5 (Gold,
k = 2) and x^13 (Kasami, k = 2) over GF(2^n), n = 1..8.

Table 2: max c-differential uniformity over c outside {0, 1} of
x^10 - x^6 - x^2 and x^10 + x^6 - x^2 over GF(3^n), odd n and n = 2.
Rows 9 and 11 are far beyond desk scale and sit behind --allow-long.
"""

TABLE1 = {
    "caption": "Gold and Kasami functions, k=2, over GF(2^n); max over a,c != 0",
    "p": 2,
    "c_set": "nonzero",
    "functions": {"gold": {"monomial": 5}, "kasami": {"monomial": 13}},
    "rows": [
        {"n": 1, "gold": 2, "kasami": 2, "source": "table1"},
        {"n": 2, "gold": 4, "kasami": 4, "source": "table1"},
        {"n": 3, "gold": 3, "kasami": 3, "source": "table1"},
        {"n": 4, "gold": 5, "kasami": 5, "source": "table1"},
        {"n": 5, "gold": 3, "kasami": 3, "source": "table1"},
        {"n": 6, "gold": 5, "kasami": 5, "source": "table1"},
        {"n": 7, "gold": 3, "kasami": 3, "source": "table1"},
        {"n": 8, "gold": 5, "kasami": 5, "source": "table1"},
    ],
}

TABLE2 = {
    "caption": ("x^10 - x^6 - x^2 and x^10 + x^6 - x^2 over GF(3^n); "
                "max over c not in {0, 1}"),
    "p": 3,
    "c_set": "exclude_0_1",
    "functions": {
        "minus": {"terms": [[10, 1], [6, -1], [2, -1]]},
        "plus": {"terms": [[10, 1], [6, 1], [2, -1]]},
    },
    "rows": [
        {"n": 1, "minus": 2, "plus": 2, "source": "table2"},
        {"n": 2, "minus": 2, "plus": 2, "source": "table2"},
        {"n": 3, "minus": 4, "plus": 4, "source": "table2"},
        {"n": 5, "minus": 6, "plus": 6, "source": "table2"},
        {"n": 7, "minus": 10, "plus": 10, "source": "table2"},
        {"n": 9, "minus": 10, "plus": 10, "source": "table2", "long": True},
        {"n": 11, "minus": 10, "plus": 10, "source": "table2", "long": True},
    ],
}
