import json

import pytest

from gradus.experiments import (
    ALL_CASES,
    build_reference_J,
    build_scan_J,
    group_index,
    offset_groups,
    reference_J,
    reproduce_reference,
    socle_group_scan,
    xi_group_size,
    REFERENCE_J_TEXT,
)
from gradus.points import random_general_points
from gradus.ring import RingSpec, parse_poly
import random


def test_build_reference_J_degrees():
    X = random_general_points(2, 2, seed=1)
    J1 = build_reference_J(X, "first_group")
    assert sorted(g.degree() for g in J1.generators) == [1, 2]
    J6 = build_reference_J(X, "quad_cubic")
    assert sorted(g.degree() for g in J6.generators) == [2, 3]
    assert all(g.is_homogeneous() for g in J1.generators + J6.generators)
    with pytest.raises(ValueError):
        build_reference_J(X, "lin_only")


def test_reference_J_verbatim():
    # generators equal the printed pairs (canonical printing reorders terms)
    ring = RingSpec(3)
    for key, texts in REFERENCE_J_TEXT.items():
        J = reference_J(ring, key)
        assert list(J.generators) == [parse_poly(ring, t) for t in texts]


def test_group_index_boundaries():
    assert [group_index(s) for s in (2, 4, 5, 9, 10, 16, 17, 25, 26)] == \
        [1, 1, 2, 2, 3, 3, 4, 4, 5]
    with pytest.raises(ValueError):
        group_index(1)


def test_xi_group_size():
    assert xi_group_size(1) == 3
    assert xi_group_size(2) == 5
    assert xi_group_size(4) == 9
    with pytest.raises(ValueError):
        xi_group_size(0)


def test_scan_J_convention():
    ring = RingSpec(3)
    rng = random.Random(0)
    assert sorted(g.degree() for g in build_scan_J(ring, 7, rng).generators) == [2, 3]
    assert sorted(g.degree() for g in build_scan_J(ring, 16, rng).generators) == [3, 4]


def test_small_scan_slice():
    rows = socle_group_scan((2, 9), trials=1, seed=3)
    assert [r.s for r in rows] == list(range(2, 10))
    for r in rows:
        assert r.offset == r.group_index - 1
        assert r.initial_degree == r.group_index
    groups = offset_groups(rows)
    assert [g["offset"] for g in groups] == [0, 1]
    assert all(g["contiguous"] for g in groups)


def test_reproduce_cases_smoke():
    rep = reproduce_reference("table2", seed=4)
    assert rep.passed
    rep = reproduce_reference("hilb_JX1", seed=4)
    assert rep.passed
    assert any(a.provenance == "REFERENCE" for a in rep.assertions)
    with pytest.raises(ValueError):
        reproduce_reference("table9")


def test_every_case_passes_at_two_seeds():
    for case in ALL_CASES:
        for seed in (13, 14):
            assert reproduce_reference(case, seed=seed).passed, (case, seed)


def test_report_serialization():
    rep = reproduce_reference("table1", seed=5)
    data = rep.to_json()
    json.dumps(data)  # must be JSON-clean
    assert data["passed"] is True
    assert {a["provenance"] for a in data["assertions"]} >= {"REFERENCE"}
    text = rep.to_text()
    assert "PASS" in text and "table1" in text


def test_case_list():
    assert "example_2_11" in ALL_CASES
    assert {"table1", "table2", "table3", "table4"} <= set(ALL_CASES)


@pytest.mark.parametrize("s_range, trials", [((2, 1), 3), ((5, 4), 1), ((2, 4), 0)])
def test_socle_group_scan_refuses_an_empty_scan(s_range, trials):
    with pytest.raises(ValueError):
        socle_group_scan(s_range, trials)
