"""Liftability, the curve/interval catalog, types, and generator sets."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from diskcovers import lift
from diskcovers.core import MonodromySequence, Transposition, disk_covering
from diskcovers.hurwitz import BraidWord, act
from diskcovers.lift import (
    CurveRef,
    IntervalRef,
    count_regular_bases,
    curve_monodromy,
    index0_curve,
    index0_interval,
    index1_curve,
    index1_interval,
    interval_braid,
    interval_type,
    is_liftable,
    is_regular_curve,
    liftable_interval_powers,
    reference_alpha_monodromy,
    standard_curve,
    standard_interval,
    systems_liftable_equivalent,
    theorem_c_generators,
    transport_curve,
    transport_interval,
    twisted_interval,
)
from diskcovers.orbit import hurwitz_orbit
from diskcovers.restrict import END, START, RestrictionSpec, restriction_signature


def word(strands, *letters):
    return BraidWord(strands, letters)


def rotation_braid(branch_points):
    """The full boundary rotation: the ascending generator run, n + 1 times."""
    n = branch_points
    return BraidWord(n, tuple(range(1, n)) * (n + 1))


def test_is_liftable_examples():
    p2 = disk_covering(2)
    assert not is_liftable(p2, word(2, 1))
    assert is_liftable(p2, word(2, 1, 1, 1))
    assert is_liftable(p2, word(2))
    p3 = disk_covering(3)
    assert is_liftable(p3, word(3, 2, 1, 1, -2))


def test_is_liftable_matches_the_action():
    rng = random.Random(59)
    checked = liftable = 0
    for _ in range(400):
        degree, length = rng.randint(2, 6), rng.randint(2, 6)
        # Public constructor: fresh, non-interned transpositions.
        s = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)])
        u = tuple(rng.choice((1, -1)) * rng.randint(1, length - 1) for _ in range(rng.randint(0, 8)))
        i = rng.randint(1, length - 1)
        inverse = tuple(-e for e in reversed(u))
        for letters in (u, u + (i,) * rng.randint(1, 6) + inverse, u + inverse):
            w = BraidWord(length, letters)
            assert is_liftable(s, w) == (act(s, w) == s), (s.pairs(), letters)
            checked += 1
            liftable += act(s, w) == s
    assert checked == 1200 and 400 < liftable < 1200
    orbit_element = act(disk_covering(4), word(4, 1, 2))
    assert is_liftable(orbit_element, word(4, 1, 1, 1)) == (act(orbit_element, word(4, 1, 1, 1)) == orbit_element)


def test_is_liftable_rejects_a_strand_mismatch_as_act_does():
    s, w = disk_covering(3), word(4, 1)
    with pytest.raises(ValueError) as expected:
        act(s, w)
    with pytest.raises(ValueError) as got:
        is_liftable(s, w)
    assert str(got.value) == str(expected.value) == "braid on 4 strands cannot act on 3 entries"


def test_interval_braid_examples():
    p3 = disk_covering(3)
    x1 = standard_interval(3, 1)
    assert interval_braid(x1).letters == (1,)
    x13 = twisted_interval(3, 1, 3)
    assert x13 == IntervalRef(1, word(3, 2))
    assert interval_braid(x13).letters == (2, 1, -2)
    assert interval_braid(x13, power=2).letters == (2, 1, 1, -2)
    assert is_liftable(p3, interval_braid(x13, power=2))
    xhat13 = index0_interval(3, 1, 3)
    assert xhat13 == IntervalRef(1, word(3, -2))
    assert interval_braid(xhat13).letters == (-2, 1, 2)


def test_interval_type_examples():
    p3 = disk_covering(3)
    assert interval_type(p3, standard_interval(3, 1)) == 3
    assert interval_type(p3, twisted_interval(3, 1, 3)) == 2
    assert interval_type(p3, index0_interval(3, 1, 3)) == 3


def test_interval_symmetric_constructors():
    assert twisted_interval(4, 3, 1) == twisted_interval(4, 1, 3)
    assert index0_interval(4, 3, 1) == index0_interval(4, 1, 3)
    assert index0_interval(4, 1, 2) == standard_interval(4, 1)
    assert twisted_interval(4, 2, 3) == standard_interval(4, 2)
    assert index1_interval(5, 4, 2, 1) == index1_interval(5, 1, 2, 4)
    assert index1_interval(5, 2, 2, 4) == index0_interval(5, 2, 4)
    assert index1_interval(5, 2, 4, 4) == index0_interval(5, 2, 4)
    with pytest.raises(ValueError):
        index1_interval(5, 2, 3, 2)


def reference_carried_interval(branch_points, i, j, power):
    """``lift._carried_interval`` as it was written before its word was built
    in closed form: ``x_i`` transported across each branch point in turn."""
    i, j = min(i, j), max(i, j)
    ref = standard_interval(branch_points, i)
    for m in range(i + 1, j):
        ref = transport_interval(ref, interval_braid(standard_interval(branch_points, m), power))
    return ref


#: The catalog constructors, each with its number of indices.
CATALOG = ((twisted_interval, 2), (index0_interval, 2), (index1_interval, 3), (index0_curve, 2), (index1_curve, 3))
#: SHA-256 of ``catalog_outcomes()``, captured from the transport loop.
CATALOG_SHA256 = "b3d56cd0b31296dda84a04f813486e3ca37e5cf2d1b29bce23259f0bb5e0e6f7"


def catalog_outcomes():
    """The ``repr`` of every catalog object, or its error, for n = 2..9 and
    all indices in 1..n: 4,900 cases."""
    out = []
    for n in range(2, 10):
        for build, arity in CATALOG:
            for indices in itertools.product(range(1, n + 1), repeat=arity):
                try:
                    out.append(repr(build(n, *indices)))
                except ValueError as error:
                    out.append(f"ValueError: {error}")
    return out


def test_catalog_matches_the_transport_loop(monkeypatch):
    outcomes = catalog_outcomes()
    assert len(outcomes) == 4900
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == CATALOG_SHA256
    monkeypatch.setattr(lift, "_carried_interval", reference_carried_interval)
    assert catalog_outcomes() == outcomes


@pytest.mark.parametrize("build", [twisted_interval, index0_interval])
def test_carried_intervals_reject_indices_out_of_range(build):
    for n in range(1, 6):
        for i, j in [(0, 2), (1, n + 1), (n, n + 2), (-1, 1)]:
            with pytest.raises(ValueError):
                build(n, i, j)
            with pytest.raises(ValueError):
                reference_carried_interval(n, i, j, 1)


#: Each catalog builder, the branch point counts and the values of each index
#: it is called with: out of range, zero, negative and degenerate.
ERROR_GRID = (
    (standard_curve, 1, (-1, 0, 1, 3), (-1, 0, 1, 3, 4)),
    (standard_interval, 1, (-1, 0, 1, 3), (-1, 0, 1, 3, 4)),
    (twisted_interval, 2, (-1, 0, 3), (-1, 0, 1, 3, 4)),
    (index0_interval, 2, (-1, 0, 3), (-1, 0, 1, 3, 4)),
    (index0_curve, 2, (-1, 0, 3), (-1, 0, 1, 3, 4)),
    (index1_interval, 3, (0, 3), (-1, 0, 2, 4)),
    (index1_curve, 3, (0, 3), (-1, 0, 2, 4)),
)


def grid_outcomes():
    """Each outcome of the ``ERROR_GRID`` calls, the exception's type and
    message or the result's ``repr``, with the calls that give it."""
    out = {}
    for build, arity, counts, values in ERROR_GRID:
        for n in counts:
            for indices in itertools.product(values, repeat=arity):
                try:
                    outcome = repr(build(n, *indices))
                except ValueError as error:
                    outcome = f"{type(error).__name__}: {error}"
                out.setdefault(outcome, []).append(f"{build.__name__}{(n, *indices)}")
    return out


def test_catalog_errors_are_unchanged():
    """``golden_lift_errors.json`` holds ``grid_outcomes()`` as the catalog
    gave it when each of its records was still built by the validating
    constructor: 521 calls, 506 of which raise."""
    golden = json.loads((Path(__file__).parent / "golden_lift_errors.json").read_text(encoding="utf-8"))
    assert sum(map(len, golden.values())) == 521
    assert "index0_curve(3, 1, 4)" in golden["ValueError: letter -3 is not a generator index on 3 strands"]
    assert grid_outcomes() == golden


def composed_index0_curve(n, i, j):
    """``index0_curve`` as the transport of ``alpha_i`` by the index-0
    interval's half-twist, against it for ``i < j``."""
    if i == j:
        return standard_curve(n, i)
    carrier = interval_braid(index0_interval(n, i, j))
    if i < j:
        carrier = carrier.inverse()
    return transport_curve(standard_curve(n, i), carrier)


def composed_index1_curve(n, i, j, k):
    """``index1_curve`` as the transport of ``alpha_{i,j}`` by the half-twist
    of the index-0 interval from ``j`` to ``k``, against it for ``k < j < i``,
    ``j < i < k`` and ``i <= k < j``."""
    if i == j or j == k:
        raise ValueError("index-1 curves need i != j and j != k")
    carrier = interval_braid(index0_interval(n, j, k))
    if not ((i < j < k) or (j < k <= i) or (k < i < j)):
        carrier = carrier.inverse()
    return transport_curve(composed_index0_curve(n, i, j), carrier)


def composed_index1_interval(n, i, j, k):
    """``index1_interval`` as the transport of the index-0 interval from ``i``
    to ``j`` by the half-twist of the one from ``j`` to ``k``, against it
    unless ``i < j < k``."""
    if i > k:
        i, k = k, i
    if i == j or j == k:
        return index0_interval(n, i, k)
    if i == k:
        raise ValueError("an index-1 interval needs distinct outer branch points")
    carrier = interval_braid(index0_interval(n, j, k))
    if not i < j < k:
        carrier = carrier.inverse()
    return transport_interval(index0_interval(n, i, j), carrier)


def outcome(build, *args):
    """The value ``build`` returns, or the type and message of its error."""
    try:
        return build(*args)
    except ValueError as error:
        return type(error), str(error)


@pytest.mark.parametrize(
    "build, composed, arity",
    [
        (index0_curve, composed_index0_curve, 2),
        (index1_curve, composed_index1_curve, 3),
        (index1_interval, composed_index1_interval, 3),
    ],
)
def test_catalog_equals_its_composition(build, composed, arity):
    # The catalog spells each word in closed form; the composition builds it
    # from intervals, half-twists, inverses and transports.  Indices run from
    # -1 to n + 2, so every error is met, in the order the composition meets it.
    calls = errors = 0
    for n in range(9):
        for indices in itertools.product(range(-1, n + 3), repeat=arity):
            got, expected = outcome(build, n, *indices), outcome(composed, n, *indices)
            assert got == expected and type(got) is type(expected), (build.__name__, n, indices)
            calls += 1
            errors += isinstance(expected, tuple)
    assert calls == sum((n + 4) ** arity for n in range(9))
    assert 0 < errors < calls


def test_reference_monodromy_examples():
    assert reference_alpha_monodromy(3, 1, 3) == Transposition(1, 4)
    assert reference_alpha_monodromy(3, 3, 1) == Transposition(1, 4)
    assert reference_alpha_monodromy(4, 1, 2, 4) == Transposition(3, 5)
    with pytest.raises(ValueError):
        reference_alpha_monodromy(4, 1, 1, 2)
    with pytest.raises(ValueError):
        reference_alpha_monodromy(3, 1, 4)


def test_curve_monodromy_examples():
    p3 = disk_covering(3)
    assert curve_monodromy(p3, standard_curve(3, 1)) == Transposition(1, 2)
    alpha13 = index0_curve(3, 1, 3)
    assert alpha13 == CurveRef(1, word(3, -2, -1, 2))
    assert curve_monodromy(p3, alpha13) == Transposition(1, 4)
    alpha31 = index0_curve(3, 3, 1)
    assert alpha31 == CurveRef(3, word(3, -2, 1, 2))
    assert curve_monodromy(p3, alpha31) == Transposition(1, 4)


def test_curve_monodromy_matches_reference_tables():
    for n in range(2, 6):
        pn = disk_covering(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert curve_monodromy(pn, index0_curve(n, i, j)) == reference_alpha_monodromy(n, i, j)
        for i, j, k in itertools.product(range(1, n + 1), repeat=3):
            if i == j or j == k:
                continue
            assert curve_monodromy(pn, index1_curve(n, i, j, k)) == reference_alpha_monodromy(n, i, j, k), (n, i, j, k)


def test_theorem_c_generators_examples():
    assert [w.letters for w in theorem_c_generators(2)] == [(1, 1, 1)]
    assert [w.letters for w in theorem_c_generators(3)] == [
        (1, 1, 1),
        (2, 2, 2),
        (2, 1, 1, -2),
    ]
    assert theorem_c_generators(1) == []
    n = 5
    assert len(theorem_c_generators(n)) == (n - 1) + (n - 1) * (n - 2) // 2


def test_theorem_c_generators_are_liftable():
    for n in range(1, 6):
        pn = disk_covering(n)
        for w in theorem_c_generators(n):
            assert is_liftable(pn, w)


def test_liftable_words_form_a_group():
    rng = random.Random(5)
    p4 = disk_covering(4)
    pool = theorem_c_generators(4)
    for _ in range(50):
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        product = BraidWord(4, ())
        for part in parts:
            product = product * (part if rng.random() < 0.7 else part.inverse())
        assert is_liftable(p4, product)
        assert is_liftable(p4, product.inverse())


def test_interval_type_is_least_liftable_power():
    for n in (2, 3):
        pn = disk_covering(n)
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for base in range(1, n):
            for length in range(0, 4):
                for combo in itertools.product(letters, repeat=length):
                    ref = IntervalRef(base, BraidWord(n, combo))
                    claimed = interval_type(pn, ref)
                    powers = [
                        k
                        for k in (1, 2, 3)
                        if is_liftable(pn, interval_braid(ref, power=k))
                    ]
                    assert powers and powers[0] == claimed


def test_no_type_one_intervals_on_disk_coverings():
    for n in (2, 3, 4):
        pn = disk_covering(n)
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for base in range(1, n):
            for length in range(0, 4):
                for combo in itertools.product(letters, repeat=length):
                    assert interval_type(pn, IntervalRef(base, BraidWord(n, combo))) != 1


def test_no_type_one_intervals_randomized_longer_words():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 4)
        pn = disk_covering(n)
        base = rng.randint(1, n - 1)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))
        )
        assert interval_type(pn, IntervalRef(base, BraidWord(n, letters))) != 1


def test_type_invariant_under_liftable_transport():
    rng = random.Random(17)
    n = 4
    pn = disk_covering(n)
    pool = theorem_c_generators(n)
    for _ in range(100):
        base = rng.randint(1, n - 1)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 5))
        )
        ref = IntervalRef(base, BraidWord(n, letters))
        liftable = rng.choice(pool)
        if rng.random() < 0.5:
            liftable = liftable.inverse()
        transported = transport_interval(ref, liftable)
        assert interval_type(pn, ref) == interval_type(pn, transported)


def test_interval_catalog_types():
    for n in range(2, 6):
        pn = disk_covering(n)
        for i in range(1, n):
            assert interval_type(pn, standard_interval(n, i)) == 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                if abs(i - j) > 1:
                    assert interval_type(pn, twisted_interval(n, i, j)) == 2
                assert interval_type(pn, index0_interval(n, i, j)) == 3
        for i, j, k in itertools.product(range(1, n + 1), repeat=3):
            if i == j or j == k or i == k:
                continue
            assert interval_type(pn, index1_interval(n, i, j, k)) == 2


def test_is_regular_curve_examples():
    p3 = disk_covering(3)
    assert is_regular_curve(p3, standard_curve(3, 3))
    assert is_regular_curve(p3, index0_curve(3, 1, 3))
    assert not is_regular_curve(p3, index0_curve(3, 1, 2))
    with pytest.raises(ValueError):
        is_regular_curve(MonodromySequence.from_pairs(2, [(1, 2), (1, 2)]), standard_curve(2, 1))


def test_regular_index0_catalog_is_exact():
    for n in (2, 3, 4):
        pn = disk_covering(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = i == j or (i, j) in ((1, n), (n, 1))
                assert is_regular_curve(pn, index0_curve(n, i, j)) == expected, (n, i, j)


def test_standard_curve_monodromies_distinct():
    n = 4
    pn = disk_covering(n)
    monodromies = [curve_monodromy(pn, standard_curve(n, j)) for j in range(1, n + 1)]
    assert len(set(monodromies)) == n


def test_systems_equivalence_examples():
    p3 = disk_covering(3)
    assert systems_liftable_equivalent(p3, [index0_curve(3, 1, 3)], [index0_curve(3, 3, 1)])
    system = [standard_curve(3, 1), standard_curve(3, 2)]
    assert systems_liftable_equivalent(p3, system, system)
    assert not systems_liftable_equivalent(p3, [standard_curve(3, 1)], [standard_curve(3, 2)])


def test_systems_equivalence_is_monodromy_and_signature_equality():
    """The criterion, spelt out: a matching that keeps the order of the
    bases, matched monodromies and equal restriction signatures at both base
    points, over seeded random systems.  Half of the second systems are the
    first carried by a liftable interval power, so that the signature
    comparison decides."""
    rng = random.Random(20)

    def signatures(seq, system):
        transported = act(seq, system[0].word)
        indices = tuple(sorted(c.base for c in system))
        return [restriction_signature(transported, RestrictionSpec(indices, b)) for b in (START, END)]

    outcomes = set()
    for _ in range(1500):
        degree, n = rng.randint(2, 5), rng.randint(2, 6)
        seq = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(n)])
        letters = BraidWord.generator_letters(n)
        bases = rng.sample(range(1, n + 1), rng.randint(1, n))
        first_word = word(n, *(rng.choice(letters) for _ in range(rng.randint(0, 4))))
        first = [CurveRef(base, first_word) for base in bases]
        if rng.random() < 0.5:
            interval = IntervalRef(rng.randint(1, n - 1), word(n, *(rng.choice(letters) for _ in range(2))))
            carrier = interval_braid(interval, interval_type(seq, interval))
            second = [transport_curve(c, carrier) for c in first]
        else:
            second_word = word(n, *(rng.choice(letters) for _ in range(rng.randint(0, 4))))
            second = [CurveRef(base, second_word) for base in rng.sample(range(1, n + 1), len(bases))]
        pairs = itertools.combinations(zip(first, second), 2)
        ordered = all((a.base < b.base) == (c.base < d.base) for (a, c), (b, d) in pairs)
        expected = ordered and all(
            curve_monodromy(seq, a) == curve_monodromy(seq, b) for a, b in zip(first, second)
        ) and signatures(seq, first) == signatures(seq, second)
        assert systems_liftable_equivalent(seq, first, second) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_systems_equivalence_keeps_the_order_of_the_bases():
    # Every braid keeps the order in which curves leave the boundary base
    # point, so none carries c1 to c2 and c2 to c1 at once: it would carry
    # the boundary loop g1 g2 to g2 g1.
    seq = MonodromySequence.from_pairs(2, [(1, 2), (1, 2)])
    c1, c2 = standard_curve(2, 1), standard_curve(2, 2)
    assert systems_liftable_equivalent(seq, [c1, c2], [c1, c2])
    assert systems_liftable_equivalent(seq, [c2, c1], [c2, c1])
    assert not systems_liftable_equivalent(seq, [c1, c2], [c2, c1])


def test_systems_equivalence_validates_input():
    p3 = disk_covering(3)
    with pytest.raises(ValueError):
        systems_liftable_equivalent(p3, [], [])
    with pytest.raises(ValueError):
        systems_liftable_equivalent(
            p3, [standard_curve(3, 1)], [standard_curve(3, 1), standard_curve(3, 2)]
        )
    with pytest.raises(ValueError):
        systems_liftable_equivalent(
            p3,
            [standard_curve(3, 1), CurveRef(2, word(3, 1))],
            [standard_curve(3, 1), standard_curve(3, 2)],
        )


def test_every_transported_fundamental_system_has_two_regular_curves():
    rng = random.Random(23)
    for n in (2, 3, 4):
        pn = disk_covering(n)
        words = [BraidWord(n, ())]
        for _ in range(12):
            letters = tuple(
                rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))
            )
            words.append(BraidWord(n, letters))
        for w in words:
            assert count_regular_bases(pn, w) >= 2, (n, w.letters)


def test_rotation_braid_is_liftable():
    for n in range(2, 7):
        assert is_liftable(disk_covering(n), rotation_braid(n))


def test_rotation_braid_carries_first_chord_to_last():
    for n in range(3, 7):
        pn = disk_covering(n)
        rot = rotation_braid(n)
        first = index0_curve(n, 1, n)
        last = index0_curve(n, n, 1)
        transported = transport_curve(first, rot)
        assert curve_monodromy(pn, transported) == curve_monodromy(pn, last)
        assert curve_monodromy(pn, transported) == Transposition(1, n + 1)
        assert systems_liftable_equivalent(pn, [transported], [last])


def test_bounded_conjugators_keep_a_subtree():
    # Tree words up to a length L are those of the N_L elements within
    # distance L, a subtree, so the count is N_L (n - 2) + 1 at every bound.
    other = MonodromySequence.from_pairs(4, [(1, 2), (1, 2), (2, 3), (3, 4), (1, 2)])
    cases = [disk_covering(3), disk_covering(4), other]
    for s in cases:
        table = hurwitz_orbit(s)
        depths = [len(table.word_to(element)) for element in table]
        for bound in range(-1, max(depths) + 2):
            within = sum(depth <= bound for depth in depths)
            words = liftable_interval_powers(s, bound)
            assert len(words) == (within and within * (s.length - 2) + 1), (s.pairs(), bound)
            assert all(is_liftable(s, w) for w in words)
    assert len(liftable_interval_powers(disk_covering(3), 2)) == 12


def interval_powers_oracle(s, max_word_length=None):
    """liftable_interval_powers built from the public pieces: for each orbit
    element, in discovery order, its tree word ``word_to``, and each position,
    ``interval_braid`` at the power ``interval_type`` gives, deduplicated."""
    out = {}
    table = hurwitz_orbit(s)
    for element in table:
        conjugator = table.word_to(element)
        if max_word_length is not None and len(conjugator) > max_word_length:
            break
        for base in range(1, s.length):
            ref = IntervalRef(base, conjugator)
            out.setdefault(interval_braid(ref, interval_type(s, ref)).letters, None)
    return list(out)


def test_interval_powers_match_the_public_construction():
    from diskcovers.orbit import classify_all

    # Every class, disconnected ones included, on the dense tables, and one
    # covering on 18 sheets, on the lazily filled ones.  Each has equal,
    # disjoint and overlapping adjacent pairs somewhere in its orbit.
    coverings = [c.representative for degree in range(2, 5) for length in range(2, 6) for c in classify_all(degree, length)]
    coverings.append(MonodromySequence.from_pairs(18, [(17, 18), (16, 17), (16, 18), (1, 2), (1, 2), (1, 2)]))
    for s in coverings:
        for bound in (None, 1):
            words = liftable_interval_powers(s, bound)
            assert [w.letters for w in words] == interval_powers_oracle(s, bound), (s.pairs(), bound)
            assert words == [BraidWord(s.length, w.letters) for w in words]


# --- the query kernels against references written here -----------------------


def reference_curve_monodromy(s, curve):
    """The entry at the curve's base in the whole transported sequence."""
    return act(s, curve.word).entries[curve.base - 1]


def reference_interval_type(s, interval):
    """The type read off two entries of the whole transported sequence."""
    transported = act(s, interval.word)
    t, u = transported.entries[interval.base - 1], transported.entries[interval.base]
    if t == u:
        return 1
    if t.is_disjoint_from(u):
        return 2
    return 3


def reference_interval_braid(interval, power):
    """The word, the twist and the inverse word as validated words, joined
    and then freely reduced."""
    n = interval.word.strands
    if power >= 0:
        twist = BraidWord(n, (interval.base,) * power)
    else:
        twist = BraidWord(n, (-interval.base,) * (-power))
    return (interval.word * twist * interval.word.inverse()).reduced()


def query_cases():
    """Seeded sequences with d <= 6 and n <= 7, then on 17 and 18 sheets,
    where the tables are lazy, each with a few seeded words, some of them
    holding a cancelling pair ``e, -e``.  On 17 and 18 sheets the entries
    move the top six sheets only, so that equal neighbours occur."""
    rng = random.Random(26)
    shapes = [(d, n) for d in range(2, 7) for n in range(2, 8)] + [(d, n) for d in (17, 18) for n in (2, 5, 7)]
    for degree, length in shapes:
        sheets = range(max(1, degree - 5), degree + 1)
        for _ in range(4):
            s = MonodromySequence.from_pairs(degree, [rng.sample(sheets, 2) for _ in range(length)])
            for _ in range(3):
                letters = [rng.choice((1, -1)) * rng.randint(1, length - 1) for _ in range(rng.randint(0, 12))]
                e = rng.choice((1, -1)) * rng.randint(1, length - 1)
                at = rng.randint(0, len(letters))
                letters[at:at] = [e, -e]
                yield s, BraidWord(length, tuple(letters))


def test_query_kernels_match_the_references():
    types = set()
    for s, w in query_cases():
        n = s.length
        for base in range(1, n + 1):
            curve = CurveRef(base, w)
            # The very entry act builds: both come from the interned table.
            assert curve_monodromy(s, curve) is reference_curve_monodromy(s, curve), (s, curve)
        for base in range(1, n):
            interval = IntervalRef(base, w)
            kind = interval_type(s, interval)
            assert kind == reference_interval_type(s, interval), (s, interval)
            types.add((s.degree > 16, kind))
            for power in range(-3, 4):
                braid = interval_braid(interval, power)
                assert braid == reference_interval_braid(interval, power), (interval, power)
                assert type(braid.letters) is tuple
    assert types == {(lazy, kind) for lazy in (False, True) for kind in (1, 2, 3)}


def test_query_kernels_keep_their_errors():
    s = disk_covering(3)
    for call, ref in ((curve_monodromy, CurveRef(1, word(4))), (interval_type, IntervalRef(1, word(4)))):
        with pytest.raises(ValueError, match="^braid on 4 strands cannot act on 3 entries$"):
            call(s, ref)
