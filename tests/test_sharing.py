"""Values that depend only on a germ, only on (n, d) or only on (d, r) are
computed once and shared read-only: each built-in germ keeps its Milnor
number, branch count, spectrum and tables, a census keeps one germ per multiplicity, and the values at
infinity of the last (n, d) and the curve bound of the last (d, r) are
kept.  Nothing is shared beyond that."""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from pathlib import Path

from helpers import (
    milnor_dim_closed_form,
    oracle_table_sum,
    table_at_infinity_from_dims,
    table_entries,
)

from specpairs import (
    HypersurfaceSpec,
    Ordinary,
    bounds,
    build_report,
    cli,
    divisibility_bound_infinity,
    localsing,
    parse_spec,
    steenbrink_infinity,
)
from specpairs.cli import arrangement_spec, census_rows, main

GOLDEN = Path(__file__).parent / "golden"
AT_INFINITY = (steenbrink_infinity, divisibility_bound_infinity, bounds._curve_bound)


def _clear_caches():
    for cached in AT_INFINITY:
        cached.cache_clear()


def test_a_census_enumerates_each_multiplicity_once(monkeypatch):
    calls = []
    enumerate_spectrum = localsing.brieskorn_pham_spectrum
    monkeypatch.setattr(
        localsing,
        "brieskorn_pham_spectrum",
        lambda e: calls.append(e) or enumerate_spectrum(e),
    )
    _clear_caches()
    rows = list(census_rows(8))
    used = {s.multiplicity for row in rows for s, _ in row.spec.singularities}
    assert all(a == b for a, b in calls)
    assert Counter(a for a, _ in calls) == Counter(used)
    for cached in AT_INFINITY:
        info = cached.cache_info()
        assert info.misses == 1 and info.hits > 0, cached.__name__


def test_specs_built_from_one_germ_map_share_tables():
    germs = {}
    first = arrangement_spec(6, ((3, 4), (2, 3)), germs)
    second = arrangement_spec(6, ((3, 1), (2, 12)), germs)
    assert set(germs) == {2, 3}
    assert first.singularities[0][0] is second.singularities[0][0] is germs[3]
    assert first.singularities[1][0] is second.singularities[1][0] is germs[2]
    expected = oracle_table_sum([(germs[3].pairs, 4), (germs[2].pairs, 3)])
    assert table_entries(first.derived.local_pair_sum) == expected
    assert vars(germs[3])["pairs"] is germs[3].pairs
    assert first.derived.infinity is second.derived.infinity


def test_only_the_last_degree_is_kept_at_infinity():
    _clear_caches()
    specs = [
        HypersurfaceSpec(n=1, d=3, components=3,
                         singularities=((Ordinary(2), 3),), line_arrangement=True),
        HypersurfaceSpec(n=1, d=7, components=1),
        HypersurfaceSpec(n=2, d=3, components=1),
    ]
    for spec in specs:
        assert build_report(spec).all_passed
    for cached in AT_INFINITY:
        info = cached.cache_info()
        # the surface has no curve bound
        misses = 2 if cached is bounds._curve_bound else 3
        assert (info.misses, info.currsize) == (misses, 1), cached.__name__


def test_a_parsed_germ_is_freed_with_its_spec():
    for name, kind in (("cuspidal_cubic", "Brieskorn"), ("three_generic_lines", "Ordinary")):
        spec = parse_spec((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        report = build_report(spec)
        germ = spec.singularities[0][0]
        assert type(germ).__name__ == kind
        # the report made the germ's tables once, on the germ itself
        assert vars(germ)["pairs"] is germ.pairs
        assert vars(germ)["alexander"] is germ.alexander
        ref = weakref.ref(germ)
        del spec, report, germ
        gc.collect()
        assert ref() is None


def test_shared_values_are_never_mutated(monkeypatch, capsys):
    germs = {}
    build = cli.build_report

    def recording(spec):
        for germ, _ in spec.singularities:
            germs[id(germ)] = germ
        return build(spec)

    monkeypatch.setattr(cli, "build_report", recording)
    outputs = []
    for _ in range(2):
        assert main(["census", "--lines", "9", "--format", "structured"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # each run shares one germ per multiplicity among its rows
    multiplicities = {germ.multiplicity for germ in germs.values()}
    assert len(germs) == 2 * len(multiplicities)
    for germ in germs.values():
        fresh = Ordinary(germ.multiplicity)
        assert germ._spectrum == localsing.brieskorn_pham_spectrum(fresh.exponents)
        assert germ.pairs == fresh.pairs
        assert germ.alexander == fresh.alexander
    dims = table_at_infinity_from_dims(1, 9, lambda m: milnor_dim_closed_form(1, 9, m))
    assert steenbrink_infinity(1, 9) == dims
    assert bounds._curve_bound(9, 9) == bounds._curve_shaped_bound(9, [*range(8)], 8)
