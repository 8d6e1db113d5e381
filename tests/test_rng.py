"""Deterministic RNG behaviour."""

from repro.rng import DEFAULT_SEED, ReproRandom, make_rng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = ReproRandom(42)
        b = ReproRandom(42)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = ReproRandom(1)
        b = ReproRandom(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_default_seed(self):
        assert make_rng().seed == DEFAULT_SEED


class TestForking:
    def test_fork_is_stable_by_label(self):
        parent = ReproRandom(7)
        first = parent.fork("drive").random()
        second = ReproRandom(7).fork("drive").random()
        assert first == second

    def test_fork_labels_give_independent_streams(self):
        parent = ReproRandom(7)
        assert parent.fork("a").random() != parent.fork("b").random()

    def test_fork_order_does_not_matter(self):
        p1 = ReproRandom(9)
        a_then_b = (p1.fork("a").random(), p1.fork("b").random())
        p2 = ReproRandom(9)
        b_then_a = (p2.fork("b").random(), p2.fork("a").random())
        assert a_then_b == (b_then_a[1], b_then_a[0])

    def test_fork_label_is_hierarchical(self):
        child = ReproRandom(7, label="root").fork("x")
        assert child.label == "root/x"


class TestChance:
    def test_chance_extremes(self):
        rng = make_rng(0)
        assert rng.chance(0.0) is False
        assert rng.chance(1.0) is True
        assert rng.chance(-0.5) is False
        assert rng.chance(1.5) is True

    def test_chance_frequency_roughly_matches(self):
        rng = make_rng(5)
        hits = sum(rng.chance(0.3) for _ in range(10_000))
        assert 2700 <= hits <= 3300

    def test_randbytes_length_and_determinism(self):
        assert make_rng(3).randbytes(16) == make_rng(3).randbytes(16)
        assert len(make_rng(3).randbytes(32)) == 32

    def test_randint_bounds(self):
        rng = make_rng(4)
        values = [rng.randint(2, 5) for _ in range(200)]
        assert min(values) >= 2 and max(values) <= 5
