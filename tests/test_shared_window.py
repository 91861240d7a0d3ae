"""The queries on one lattice share one window scan and one quotient.

enumerate_isotropic and section_vector read a lazy window per (Gram, h),
kept in a bounded memo, and quotient_lattice memoizes its results.  The
tests check that any order of reads gives the scan's own answer, also from
several threads at once, that the three iso-window queries on one lattice
walk the window once and quotient once, and that a scan that raises is
never kept.
"""

import io
import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import corpus
from test_isotropic import ISO_WINDOW_TIERS, _signed_permutation

from cuspcount import isotropic
from cuspcount.cli import main, parse_lattice_spec
from cuspcount.errors import ZeroVector
from cuspcount.isotropic import enumerate_isotropic, quotient_lattice, section_vector

CASES = [(parse_lattice_spec(label), h) for label, _ in ISO_WINDOW_TIERS for h in (1, 2, 3, 4)]
CASES += [(lattice, h) for lattice in corpus() for h in (1, 2, 3, 4)]


def _first_divisor_one(window):
    return next((iv.vector for iv in window if iv.divisor == 1), None)


@pytest.mark.parametrize("seed", range(3))
def test_any_interleaving_of_reads_is_the_scan(seed):
    """Calls of section_vector and enumerate_isotropic, and three live
    readers of the window advanced in a random order, all see a fresh
    list(_scan_isotropic)."""
    rng = random.Random(seed)
    for lattice, h in CASES:
        want = list(isotropic._scan_isotropic(lattice, h))
        isotropic._window.cache_clear()
        readers = [iter(isotropic._window(lattice, h)) for _ in range(3)]
        read = [[] for _ in readers]
        for _ in range(3 * len(want) + 6):
            step = rng.randrange(len(readers) + 2)
            if step == len(readers):
                assert section_vector(lattice, h) == _first_divisor_one(want)
            elif step > len(readers):
                assert enumerate_isotropic(lattice, h) == want
            else:
                read[step].extend(next(readers[step], None) for _ in range(rng.randint(0, 2)))
        for reader, got in zip(readers, read):
            got = [iv for iv in got if iv is not None]
            assert got + list(reader) == want


def test_threads_read_one_new_window_at_once():
    """Four threads start on the same new window together; each gets the
    scan's answer.  The window lets one reader at a time advance the scan,
    which a generator needs: two at once raise 'generator already
    executing'."""
    lattice = parse_lattice_spec("U+U+A(2)")
    want = list(isotropic._scan_isotropic(lattice, 3))
    for _ in range(5):
        isotropic._window.cache_clear()
        barrier = threading.Barrier(4)

        def read(k):
            barrier.wait()
            return enumerate_isotropic(lattice, 3) if k % 2 else section_vector(lattice, 3)

        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(read, range(4)))
        assert got == [_first_divisor_one(want), want] * 2


def _counted_scan(monkeypatch):
    """Patch the scan so each vector it yields is counted, per lattice."""
    steps = {}
    scan = isotropic._scan_isotropic

    def counted(lattice, height_bound):
        for iv in scan(lattice, height_bound):
            steps[lattice] = steps.get(lattice, 0) + 1
            yield iv

    monkeypatch.setattr(isotropic, "_scan_isotropic", counted)
    return steps


@pytest.mark.parametrize("label, h", ISO_WINDOW_TIERS)
def test_three_queries_walk_the_window_once(label, h, tmp_path, monkeypatch):
    """fm elliptic, classify-i1 and cusps --div 2 on one {"gram": ...} file,
    as in the iso-window workload, advance the scan |window| steps in all
    and build the quotient of the section once."""
    lattice = _signed_permutation(parse_lattice_spec(label), random.Random(label))
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"gram": [list(row) for row in lattice.gram]}), encoding="utf-8")
    window = enumerate_isotropic(lattice, h)
    has_section = section_vector(lattice, h) is not None
    isotropic._window.cache_clear()
    isotropic._quotient.cache_clear()
    steps = _counted_scan(monkeypatch)
    codes = []
    for argv in (
        ["fm", "elliptic", str(path), "--bound", str(h)],
        ["classify-i1", str(path), "--bound", str(h)],
        ["cusps", str(path), "--div", "2", "--bound", str(h)],
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    assert codes == [0, 0 if has_section else 2, 0]
    assert steps == {lattice: len(window)}
    assert isotropic._quotient.cache_info().misses == has_section


@pytest.mark.parametrize("fail_at", [0, 5])
def test_a_failed_scan_raises_on_every_read(fail_at, monkeypatch):
    """A scan that raises leaves no truncated window: every read that
    reaches the failure raises it, a live reader of the failed window too,
    and once the fault is gone the full window comes back."""
    lattice = parse_lattice_spec("U+A(3)")
    want = list(isotropic._scan_isotropic(lattice, 3))
    assert want[0].divisor == 1 and len(want) > 10
    scan = isotropic._scan_isotropic

    def failing(lattice, height_bound):
        for i, iv in enumerate(scan(lattice, height_bound)):
            if i == fail_at:
                raise RuntimeError("scan failed")
            yield iv

    isotropic._window.cache_clear()
    monkeypatch.setattr(isotropic, "_scan_isotropic", failing)
    for _ in range(3):
        window = isotropic._window(lattice, 3)
        first, second = iter(window), iter(window)
        if fail_at:
            assert section_vector(lattice, 3) == want[0].vector  # read before the failure
        else:
            with pytest.raises(RuntimeError, match="scan failed"):
                section_vector(lattice, 3)
        assert isotropic._window.cache_info().currsize == (fail_at > 0)
        with pytest.raises(RuntimeError, match="scan failed"):
            list(first)
        assert isotropic._window.cache_info().currsize == 0
        assert [next(second) for _ in range(fail_at)] == want[:fail_at]
        with pytest.raises(RuntimeError, match="scan failed"):
            next(second)
        with pytest.raises(RuntimeError, match="scan failed"):
            enumerate_isotropic(lattice, 3)
        assert isotropic._window.cache_info().currsize == 0
    monkeypatch.undo()
    assert enumerate_isotropic(lattice, 3) == want


def test_memos_stay_bounded():
    for lattice, h in CASES:
        window = enumerate_isotropic(lattice, h)
        for iv in window[:3]:
            quotient_lattice(lattice, iv.vector)
        assert isotropic._window.cache_info().currsize <= 4
        assert isotropic._quotient.cache_info().currsize <= 4
    assert isotropic._window.cache_info().maxsize == isotropic._quotient.cache_info().maxsize == 4


def test_quotient_accepts_a_list_a_tuple_and_a_tagged_vector():
    lattice = parse_lattice_spec("U+A(2)")
    iv = next(iv for iv in enumerate_isotropic(lattice, 2) if iv.divisor == 1)
    isotropic._quotient.cache_clear()
    want = quotient_lattice(lattice, iv.vector)
    assert quotient_lattice(lattice, list(iv.vector)) == want
    assert quotient_lattice(lattice, iv) == want
    assert isotropic._quotient.cache_info().misses == 1


def test_a_bad_height_bound_raises_on_every_call():
    """It raises before any window is made, so the memo keeps the others."""
    lattice = parse_lattice_spec("U+A(2)")
    isotropic._window.cache_clear()
    enumerate_isotropic(lattice, 2)
    for _ in range(2):
        with pytest.raises(ZeroVector):
            section_vector(lattice, 0)
        with pytest.raises(ZeroVector):
            enumerate_isotropic(lattice, 0)
    assert isotropic._window.cache_info().currsize == 1
