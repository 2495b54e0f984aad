"""The tier-1 corpus: test inputs by label, and their facts in one table.

get(label) builds the input a label names:

    F<n>                the order-n Fourier matrix
    F<a>xF<b>[xF<c>]    a Kronecker product of Fourier matrices
    petrescu1           Petrescu's order-7 matrix at lambda = 1
    petrescu<theta>i    the same at lambda = e^(i theta), e.g. petrescu0.9i
    bjorck7             Bjorck's order-7 circulant
    random<n>           brute.random_biunitary of order n

A trailing "s" names a scrambled copy of the input it extends: an
equivalence move D1 P1 U P2 D2 (brute.random_equivalence_move). random<n>
and each scramble draw from default_rng(crc32(label)), so a label always
gives the same bits.

FACTS holds what tier-1 asserts of a labelled input: its span rank, and for
each finder the witness count and a digest of the mask index lists in finder
order (test_families.test_finder_output_is_frozen), or None past that
finder's cap. Residual bits are left out, as they depend on the BLAS build.
"""

import zlib
from functools import reduce
from typing import NamedTuple

import numpy as np

import brute
from hadcert import bjorck7, fourier, petrescu


def get(label):
    """The input named by label (see the module docstring)."""
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    if label.endswith("s"):
        return brute.random_equivalence_move(get(label[:-1]), rng)[0]
    if label == "bjorck7":
        return bjorck7()
    if label.startswith("random"):
        return brute.random_biunitary(int(label[len("random"):]), rng)
    if label == "petrescu1":
        return petrescu(1.0)
    if label.startswith("petrescu") and label.endswith("i"):
        return petrescu(np.exp(1j * float(label[len("petrescu"):-1])))
    factors = label.split("x")
    if not all(f[:1] == "F" and f[1:].isdigit() for f in factors):
        raise ValueError(f"no corpus input is labelled {label!r}")
    return reduce(np.kron, [fourier(int(f[1:])) for f in factors])


class Facts(NamedTuple):
    """A FACTS row: the span rank, then (count, digest) of the block finder
    and of the commuting finder, each None past that finder's cap."""

    rank: int
    block: tuple | None
    commuting: tuple | None


# no witness: the count and digest of the empty list
EMPTY = (0, "4f53cda18c2baa0c")
FACTS = {
    "F2": Facts(1, EMPTY, EMPTY),
    "F2s": Facts(1, EMPTY, EMPTY),
    "F3": Facts(4, EMPTY, EMPTY),
    "F3s": Facts(4, EMPTY, EMPTY),
    "F4": Facts(8, (8, "dd2774401e158906"), (1, "d1d79c44c6969437")),
    "F4s": Facts(8, (8, "9daa28ebcbea49ba"), (1, "d4a3a40920ae8732")),
    "F5": Facts(16, EMPTY, EMPTY),
    "F5s": Facts(16, EMPTY, EMPTY),
    "F6": Facts(21, (168, "6192dc85df9cd2ac"), (6, "71eed18bfcb8067b")),
    "F6s": Facts(21, (168, "b4ad774782d66d4f"), (6, "a35883fd0fe5df27")),
    "F7": Facts(36, EMPTY, EMPTY),
    "F7s": Facts(36, EMPTY, EMPTY),
    "F8": Facts(44, (1040, "9dcd9c3375a796ae"), (13, "1ff289f48f0c1ab2")),
    "F8s": Facts(44, (1040, "2086840f10b7ff14"), (13, "2d890ddea719c39d")),
    "F9": Facts(60, (1242, "6856cc0597182c30"), (9, "96ae762964189dc7")),
    "F9s": Facts(60, (1242, "384fff3cbde44ebb"), (9, "962469285c628e21")),
    "F10": Facts(73, (5880, "2b054f5e65882432"), (30, "7e12ab2dc0494ee6")),
    "F10s": Facts(73, (5880, "b699f1b2480c9a76"), (30, "732ef869e66516af")),
    "F11": Facts(100, None, EMPTY),
    "F11s": Facts(100, None, EMPTY),
    "F12": Facts(104, None, (97, "c84c6a8bf9531627")),
    "F12s": Facts(104, None, (97, "fe0caeebe84869a7")),
    "F13": Facts(144, None, EMPTY),
    "F13s": Facts(144, None, EMPTY),
    "F14": Facts(157, None, (126, "1baab89fdbb87c25")),
    "F14s": Facts(157, None, (126, "caf18813d0d8d3cb")),
    # past both finder caps: the span rank alone
    **{f"F{n}": Facts(rank, None, None) for n, rank in [
        (15, 180), (16, 208), (17, 256), (18, 261), (19, 324), (20, 328), (21, 376), (22, 421),
        (23, 484), (24, 476), (25, 560), (26, 601), (27, 648), (28, 680), (29, 784), (30, 765),
        (31, 900), (32, 912)]},
    "F2xF3": Facts(21, (168, "c091eb0ec0f131eb"), (6, "84018cd4e5d585e8")),
    "F2xF3s": Facts(21, (168, "bc02ce9a9a9b83b4"), (6, "42d55a5fceaeee56")),
    "F2xF2xF2": Facts(28, (6832, "baa1d0b9aa696253"), (77, "93818e387f027adb")),
    "F2xF2xF2s": Facts(28, (6832, "4b163213fada4157"), (77, "84524b4b0c882a85")),
    "F2xF4": Facts(36, (3056, "f997b554376a3104"), (37, "0c078e0d0c411e60")),
    "F2xF4s": Facts(36, (3056, "2653feddccb554ea"), (37, "7845003448cabab2")),
    "F3xF3": Facts(48, (4968, "72d936a16e6ff311"), (36, "bf724bd7491b098b")),
    "F3xF3s": Facts(48, (4968, "9115bb1191d3b355"), (36, "182071a20c53d4c3")),
    "petrescu1": Facts(33, (9, "c231cc4c806f17e4"), EMPTY),
    "petrescu1s": Facts(33, (9, "b0202fb4b5096f71"), EMPTY),
    "petrescu0.7i": Facts(34, (3, "73fb52feb2624fa2"), EMPTY),
    "petrescu0.7is": Facts(34, (3, "f73d6cb3f263fe5e"), EMPTY),
    "petrescu2.5e-9i": Facts(33, (3, "73fb52feb2624fa2"), EMPTY),
    "petrescu2.5e-9is": Facts(33, (3, "a1d948bbce52391f"), EMPTY),
    "bjorck7": Facts(36, EMPTY, EMPTY),
    "bjorck7s": Facts(36, EMPTY, EMPTY),
}
