"""The betti table as a JSON object, a test oracle for ``format_betti_json``.

``json.dumps(betti_dict(table), indent=2, sort_keys=True)`` is the text
that ``format_betti_json`` writes from its templates.
"""

from __future__ import annotations

from sqfbetti.betti import BettiTable
from sqfbetti.core import monomial_names


def betti_dict(table: BettiTable) -> dict:
    vars = table.ideal.vars
    multi = [
        {"i": i, "monomial": monomial_names(m, vars), "rank": rank}
        for (i, m), rank in sorted(
            table.multigraded.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())
        )
    ]
    graded = [
        {"i": i, "j": j, "rank": rank}
        for (i, j), rank in sorted(table.graded.items())
    ]
    return {
        "field": table.field.label,
        "variables": list(vars.names),
        "pd": table.pd,
        "t": {str(a): v for a, v in sorted(table.t.items())},
        "totals": list(table.totals()),
        "graded": graded,
        "multigraded": multi,
    }
