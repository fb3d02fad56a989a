"""The ziggurat tables in ``adiabound._ziggurat`` against the installed numpy.

numpy does not export ``wi_double`` or ``ki_double``, so they are read back
out of its own sampler: an MT19937 whose key tempers to chosen 32-bit outputs
feeds ``Generator.standard_normal`` chosen 64-bit words (high half first).
Run this file as a script to print both tables in the module's layout:

    PYTHONPATH=src python tests/test_ziggurat.py
"""
import numpy as np

from adiabound._ziggurat import KI, WI

#: rabs runs over [0, 2^52); KI = 2^52 would mean "never a second word"
_RABS_END = 1 << 52
#: a nonzero MT19937 key to fill the outputs after the chosen ones
_BASE_KEY = np.random.MT19937(0).state["state"]["key"]


def _untemper(y: int) -> int:
    """The MT19937 key word whose tempered output is the 32-bit ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):  # each pass fixes 7 more low bits
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):  # each pass fixes 11 more high bits
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def probe_draw(words: list[int]) -> tuple[float, int]:
    """One standard normal draw of numpy's sampler whose first 64-bit words are
    ``words``, and the number of 64-bit words it took."""
    key = _BASE_KEY.copy()
    for i, w in enumerate(words):
        key[2 * i] = _untemper(w >> 32)
        key[2 * i + 1] = _untemper(w & 0xFFFFFFFF)
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    z = float(np.random.Generator(bits).standard_normal())
    return z, bits.state["state"]["pos"] // 2


def _one_word(idx: int, rabs: int) -> bool:
    """Whether the draw of the word with this idx and rabs (sign 0) takes one word."""
    return probe_draw([rabs << 9 | idx])[1] == 1


def probe_tables() -> tuple[np.ndarray, np.ndarray]:
    """(WI, KI) read out of the installed numpy.  WI[idx] is the draw of the
    word with rabs = 1 (KI[1] = 0, so the idx = 1 draw always reads a second
    word; a zero one accepts it at once); KI[idx] is the smallest rabs whose
    draw takes a second word, found by bisection."""
    wi = np.array([probe_draw([1 << 9 | idx, 0])[0] for idx in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        lo, hi = 0, _RABS_END
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if _one_word(idx, mid) else (lo, mid)
        ki[idx] = lo
    return wi, ki


_REGENERATE = ("numpy's ziggurat tables differ from adiabound._ziggurat; regenerate WI and KI "
               "with `PYTHONPATH=src python tests/test_ziggurat.py` and paste its output")


def test_untemper_inverts_mt19937_tempering():
    words = [0, 1, 0xFFFFFFFF, 0x9D2C5680, 0xEFC60000, 0xDEADBEEF, 0x12345678]
    key = _BASE_KEY.copy()
    key[:len(words)] = [_untemper(w) for w in words]
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    assert bits.random_raw(len(words)).tolist() == words  # MT19937's raw words are 32-bit


def test_wi_is_numpys_wi_double():
    assert WI.dtype == np.float64 and WI.shape == (256,)
    assert WI[0] == float.fromhex("0x1.f493b7815d979p-51")
    probed = np.array([probe_draw([1 << 9 | idx, 0])[0] for idx in range(256)])
    bad = np.flatnonzero(probed.view(np.uint64) != WI.view(np.uint64)).tolist()
    assert not bad, f"{_REGENERATE}: WI entries {bad}"


def test_ki_is_numpys_ki_double():
    """Each KI entry is the threshold: rabs = KI - 1 takes one word and rabs = KI
    two.  The sampler's test is ``rabs < ki_double[idx]``, monotone in rabs, so
    the two draws fix the entry."""
    assert KI.dtype == np.uint64 and KI.shape == (256,)
    assert (int(KI[0]), int(KI[1])) == (0xEF33D8025EF6A, 0)
    bad = [idx for idx, k in enumerate(KI.tolist())
           if not (k < _RABS_END and not _one_word(idx, k) and (k == 0 or _one_word(idx, k - 1)))]
    assert not bad, f"{_REGENERATE}: KI entries {bad}"


if __name__ == "__main__":
    def _rows(values):
        words = [f"{v:016x}" for v in values]
        return "\n".join("    " + " ".join(words[i:i + 4]) for i in range(0, len(words), 4))

    wi, ki = probe_tables()
    print('WI = _table("""\n' + _rows(wi.view(np.uint64).tolist()) + '\n""").view(np.float64)')
    print('KI = _table("""\n' + _rows(ki.tolist()) + '\n""")')
