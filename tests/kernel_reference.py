"""Reference for the kernel's overflow certificate.

``overflow_bound`` is the bound written out term by term from its definition;
the compiled plans of ``core`` must give the same integer on the
degree-scaled terms, and the tests use it to say where int64 must end.
"""


def overflow_bound(terms, shapes: dict, maxabs: dict) -> int:
    """A bound on every partial sum an integer evaluation of ``terms`` forms.

    Each term contributes |coefficient| times the product of its operands'
    largest entries (at least 1, so partial products stay under it too) times
    the number of index values it sums over.
    """
    total = 0
    for coef, subs, names in terms:
        inputs, out = subs.split("->")
        sizes = {}
        for letters, name in zip(inputs.split(","), names):
            sizes.update(zip(letters, shapes[name]))
        term = abs(coef)
        for name in names:
            term *= max(maxabs[name], 1)
        for letter, size in sizes.items():
            if letter not in out:
                term *= size
        total += term
    return total
