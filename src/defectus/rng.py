"""Counter-based deterministic random streams.

Every source of randomness in the package draws from a SHA-256 counter
stream keyed by explicit integers/strings.  There are two: the seeded
extension modulus search (``fields``) and system sampling
(``experiment``); classification is exact and draws nothing.  Unlike
the stdlib Mersenne generator, the output is a pure function of the key
with no hidden state shared between consumers, so results are identical
across platforms, Python versions, process counts and scheduling
orders.
"""

from __future__ import annotations

import hashlib


class HashStream:
    """Deterministic stream of uniform integers keyed by ``parts``.

    Key parts may be ints, strings or bytes.  Each draw consumes 16
    bytes of SHA-256 output; the modulo bias for bounds below 2**64 is
    at most 2**-64 and is ignored.
    """

    __slots__ = ("_key", "_counter", "_buf", "_pos")

    def __init__(self, *parts):
        material = "\x1f".join(self._encode(p) for p in parts)
        self._key = hashlib.sha256(material.encode("utf-8")).digest()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    @staticmethod
    def _encode(part) -> str:
        if isinstance(part, bytes):
            return "b:" + part.hex()
        if isinstance(part, bool):
            return "i:%d" % int(part)
        if isinstance(part, int):
            return "i:%d" % part
        if isinstance(part, str):
            return "s:" + part
        raise TypeError(f"unsupported stream key part: {part!r}")

    def _take(self, n: int) -> bytes:
        while len(self._buf) - self._pos < n:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buf = self._buf[self._pos:] + block
            self._pos = 0
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def randint(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = max(16, (bound.bit_length() + 7) // 8 + 8)
        return int.from_bytes(self._take(nbytes), "big") % bound
