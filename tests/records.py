"""The trivial symmetry record, for the tests that compare a reduced path
of the package with its generic path."""

from unittest import mock

from cdiffkit import functions


def trivial_record(F):
    """A new table of F's values whose symmetry record is the trivial one:
    Λ = {1} with μ = 1, so every row is its own coset and every column of
    a Walsh array is transformed, and no Frobenius step.  It is built by
    the package's own constructor, Symmetry.of.  The record is built
    inside the patch and checked, so a record cached on F cannot stand in
    for it and turn a reduced-versus-generic comparison into
    reduced-versus-reduced."""
    spec = F.spec
    trivial = functions.Symmetry.of(spec, spec.q - 1, 1, False)
    with mock.patch.object(functions, "_symmetry", return_value=trivial):
        G = functions.FunctionTable(spec, F.values, F.origin)
        sym = G.symmetry
    assert sym.rows.tolist() == list(range(spec.q))
    assert sym.columns.cols.tolist() == list(range(spec.q))
    assert (sym.order, sym.frobenius) == (1, False)
    return G
