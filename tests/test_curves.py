"""Curve table construction: conventions, bijectivity, continuity."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from sfcaudio import curves
from sfcaudio.curves import (
    MAX_ORDER,
    CurveKind,
    build_curve,
    get_curve,
    index_to_point,
    jump_positions,
    point_to_index,
)
from sfcaudio.equivariance import Kernel, check_equivariance, circular_shift, sweep_lemma
from sfcaudio.imaging import MixupParams, SfcImage
from sfcaudio.locality import grid_distance, worst_case_profile
from sfcaudio.signal import AudioClip, CenterParams, ShiftParams

ALL_KINDS = list(CurveKind)
GRAMMAR_KINDS = [CurveKind.HILBERT, CurveKind.Z, CurveKind.GRAY, CurveKind.OPTR]


# --- independent oracles -----------------------------------------------------

def hilbert_by_recursion(k):
    """Quadrant composition on Python tuples: the builder's own recursion.

    Each step places a transposed copy bottom-left, two shifted copies
    above, and an anti-transposed copy bottom-right. The independent
    check is ``hilbert_by_bit_transform``.
    """
    pts = [(0, 0)]
    for j in range(1, k + 1):
        m = 1 << (j - 1)
        pts = (
            [(y, x) for (x, y) in pts]
            + [(x, y + m) for (x, y) in pts]
            + [(x + m, y + m) for (x, y) in pts]
            + [(2 * m - 1 - y, m - 1 - x) for (x, y) in pts]
        )
    return pts


def hilbert_by_bit_transform(k):
    """Per-level bit transformation of the index, lowest quad first."""
    n = 1 << k
    t = np.arange(n * n, dtype=np.int64)
    x = np.zeros(n * n, dtype=np.int64)
    y = np.zeros(n * n, dtype=np.int64)
    s = 1
    while s < n:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        flip = (ry == 0) & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    return x, y


def deinterleave(bits, k):
    """x from the odd bit positions of each index, y from the even ones."""
    x = np.zeros_like(bits)
    y = np.zeros_like(bits)
    for b in range(k):
        x |= ((bits >> (2 * b + 1)) & 1) << b
        y |= ((bits >> (2 * b)) & 1) << b
    return x, y


def z_by_deinterleave(k):
    return deinterleave(np.arange(4**k, dtype=np.int64), k)


def gray_by_deinterleave(k):
    t = np.arange(4**k, dtype=np.int64)
    return deinterleave(t ^ (t >> 1), k)


def h_leaf_cells(k, a, b, c):
    """Leaf cells of one vertex triangle bisected 2k times, first visit only."""
    n = 1 << k
    A = np.array([a], dtype=np.int32)
    B = np.array([b], dtype=np.int32)
    C = np.array([c], dtype=np.int32)
    for _ in range(2 * k):
        M = (A + B) >> 1
        A2 = np.empty((2 * A.shape[0], 2), dtype=np.int32)
        B2 = np.empty_like(A2)
        C2 = np.empty_like(A2)
        A2[0::2], B2[0::2], C2[0::2] = A, C, M
        A2[1::2], B2[1::2], C2[1::2] = C, B, M
        A, B, C = A2, B2, C2
    cells = np.minimum(np.minimum(A, B), C)
    ids = cells[:, 1].astype(np.int64) * n + cells[:, 0]
    _, first = np.unique(ids, return_index=True)
    return cells[np.sort(first)]


def h_by_bisection(k):
    """Traversal of the right-triangle bisection hierarchy of the square.

    The square splits along its main diagonal into two triangles, each
    split recursively at the midpoint of its hypotenuse; the leaf
    triangles' cells, first visit only, form the H tour.
    """
    n = 1 << k
    lower = h_leaf_cells(k, (0, 0), (n, n), (n, 0))
    upper = h_leaf_cells(k, (n, n), (0, 0), (0, n))
    cells = np.concatenate([lower, upper])
    ids = cells[:, 1].astype(np.int64) * n + cells[:, 0]
    _, first = np.unique(ids, return_index=True)
    cells = cells[np.sort(first)]
    return cells[:, 0], cells[:, 1]


def diagonal_by_sort(k):
    """Every point sorted by diagonal d = x + y, then along it: x up on even d, down on odd."""
    n = 1 << k
    y, x = np.divmod(np.arange(n * n, dtype=np.int64), n)
    d = x + y
    order = np.lexsort((np.where(d % 2 == 0, x, -x), d))
    return x[order], y[order]


REFERENCE_BUILDERS = {
    CurveKind.HILBERT: hilbert_by_bit_transform,
    CurveKind.Z: z_by_deinterleave,
    CurveKind.GRAY: gray_by_deinterleave,
    CurveKind.H: h_by_bisection,
    CurveKind.DIAGONAL: diagonal_by_sort,
}


def diagonal_by_loop(k):
    """Anti-diagonal zigzag generated diagonal by diagonal."""
    n = 1 << k
    pts = []
    for d in range(2 * n - 1):
        lo, hi = max(0, d - n + 1), min(d, n - 1)
        rng = range(lo, hi + 1) if d % 2 == 0 else range(hi, lo - 1, -1)
        pts.extend((x, d - x) for x in rng)
    return pts


def jumps_by_loop(cm):
    out = []
    for t in range(len(cm) - 1):
        dx = abs(int(cm.xs[t + 1]) - int(cm.xs[t]))
        dy = abs(int(cm.ys[t + 1]) - int(cm.ys[t]))
        if max(dx, dy) > 1:
            out.append(t)
    return out


def points(cm):
    return list(zip(cm.xs.tolist(), cm.ys.tolist()))


# --- frozen order-3 tables for the two grammar-built curves -------------------

H_K3_TABLE = [
    (0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (3, 0), (3, 1), (2, 2),
    (3, 2), (3, 3), (4, 3), (4, 2), (5, 2), (5, 1), (4, 1), (4, 0),
    (5, 0), (6, 1), (6, 0), (7, 0), (7, 1), (6, 2), (7, 2), (7, 3),
    (6, 3), (5, 3), (4, 4), (5, 4), (5, 5), (6, 5), (6, 4), (7, 4),
    (7, 5), (6, 6), (7, 6), (7, 7), (6, 7), (5, 6), (5, 7), (4, 7),
    (4, 6), (4, 5), (3, 4), (3, 5), (2, 5), (2, 6), (3, 6), (3, 7),
    (2, 7), (1, 6), (1, 7), (0, 7), (0, 6), (1, 5), (0, 5), (0, 4),
    (1, 4), (2, 4), (2, 3), (1, 2), (1, 3), (0, 3), (0, 2), (0, 1),
]

OPTR_K3_TABLE = [
    (0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (1, 2),
    (2, 3), (3, 3), (3, 2), (2, 2), (2, 1), (2, 0), (3, 0), (3, 1),
    (4, 1), (4, 0), (5, 0), (5, 1), (6, 1), (6, 0), (7, 0), (7, 1),
    (7, 2), (7, 3), (6, 3), (6, 2), (5, 3), (5, 2), (4, 2), (4, 3),
    (3, 4), (3, 5), (2, 5), (2, 4), (1, 4), (0, 4), (0, 5), (1, 5),
    (0, 6), (0, 7), (1, 7), (1, 6), (2, 6), (2, 7), (3, 7), (3, 6),
    (4, 6), (4, 7), (5, 7), (5, 6), (4, 5), (4, 4), (5, 4), (5, 5),
    (6, 4), (7, 4), (7, 5), (6, 5), (7, 6), (6, 6), (6, 7), (7, 7),
]


# --- pinned digests: the curve tables are the .sfci contract ------------------
#
# SHA-256 of xs then ys, each as little-endian uint32, for orders 1..13
# (index 0 is order 1). Any builder change must leave every one unchanged.

TABLE_SHA256 = {
    CurveKind.HILBERT: (
        "9ee64b684b03dcb4cd462cb73f0cf14cf49063b74869f7a82b43c3ce291e43f5",
        "8e1f839b4a3fbab2f3a2c1bab82f210ff3ace2b072ae785ff2b8a4b3aefd5ec7",
        "456e3bfa70cdfae08728080b9df45f12bac2ec3c6c1d91a733e63915b480b223",
        "a12e046280754ef125d63ca90ec133f44e01a8ab70c98c8a1674ec6a386b6957",
        "3773e6dac3f50329d31ee6a3be23fa339d666b81be4e291efeb022a0aaf039de",
        "2a221bfe0e773a66cd325f92e25b20c25b6022cd1aad84b02fc9ee7737e57243",
        "585efe009d4a815ca82e56e527286433bb25b8ba19aab8eca9b81d22508a0b3c",
        "d8116b2eba12172c27f7170925d642d1484f25dc71c006dff84709dd4ec7b4d3",
        "33041a0a2ded00362ba695a088eb4a79506d23041f1612a1bc0acd1df5cfaf17",
        "973e458063d2daeb4feb46d3412b16cfb3c6cfe6180b4459d7be49bcce6ec33f",
        "2d0d2b4a09f3fcb22c1c677077efae1c62a87b17e679bee8031786017f81ea92",
        "a3b09853ed0ff96d88633fcd4ca480f5619e406887571134807ade2ddf56dcb1",
        "dc0ffbb6d7e6fabbb054ab5395737e3b364f46c6c7f9e98f279348364ee09402",
    ),
    CurveKind.Z: (
        "b7af13e1e62ba4d41770eb9a42700a44c15c8b9a8e3421d67fed09b3c3b521c6",
        "1e0c260e63fa0a8486198fd859104af85752ab5f360cdc6df3ebb3c0411d491e",
        "614f62afbadfcd99a7b8167db0f52b9c69b0e0453d4d8c0a2fe6069c4271dfff",
        "9248f71eff644fe9b85f44043ff52eb8e134923db39c5496bcf19c212240413f",
        "7a638f5a45317f8573b1e9e5d6ea47cdf80f65f67fbaf88c036a5f564a68d705",
        "16d280c0490bbd458ff0e8f3a3c012d7fbdeaa4fd61b10b9596a39198660d44f",
        "629373f4275e56f8a85957894e2030b4a2bf4afb4d56e72256fe85b3ff27caa3",
        "68b28ef0e086fbc979d22496996ec79e1fe80e403177f3bf36e6e14909b07c60",
        "030f8626463b78ca78b633c10d71ec92676759eebb10848460ebbf628ac465c5",
        "b51ede64dfffd718081094aa8970d6a15a6e7b1514aceb8a50d24914e7e2247e",
        "66b5685ec0c35b9486d50d518172fbbb2d8b45893f1916da19fb7324c0ce41c7",
        "37a2e81cc0713c9f1c164f0d49f885c741c2a8b1f1d35a1c90b0f7803892f0e9",
        "47006ff797eaea85fe70dc4da0d7070d2305428a8d3ba4a9c3b6110c1e27eded",
    ),
    CurveKind.GRAY: (
        "9ee64b684b03dcb4cd462cb73f0cf14cf49063b74869f7a82b43c3ce291e43f5",
        "764e0b5e495cfe6b8d15fa9117e167e139f76b4bc43834988cdf79ce1a95e7f4",
        "67ca4986ad6e927e1a4a884eef805a086fa09a4fad0e894b6b1cd9ad688f2925",
        "469aa5f8d578f8287c45cf504eccbf9cd054d76dc009270957e96bbc4be28af6",
        "0defe55737e743a634bcc8135b25099f8c7f2709511b972e62462a2a807ead34",
        "822b5188c06de60bb5816d2cf417a5fa09f692a59098f9f0e47f99a486b9f88f",
        "aef56f2ce26373492171f1c29144db749e3ec2c475c07de5836e7236862b72eb",
        "2063244977f8fe07d05ffa4f068b34260822032ebfd668748900e8878800071d",
        "cb3c79334dcba2624a774993d4c2f4afdb303d34760b031234ed98e87e262212",
        "f8c8f2a3fde0eb182d0a886126896799ec6b5b689fcc3705e60efe84c232c268",
        "d8d63af103108cb98cf8d81c6ebf3a3811d22f1040f9667d44d2c4c9d743b268",
        "533a2fb9990986001c78eb2821b7ffbd95b4698f98b17892838f90bb6b434f91",
        "a9325e7d241c39541a31e5b8232fcf7612b949416cbba03ac95845bd9b901882",
    ),
    CurveKind.H: (
        "c77c6842b53615d05b59a1dc975d458ad197e7f1f58f25d3673ab0e158c5e5ac",
        "5f2118edc6edcd6f89c80cd49cc05317c23e6c85c93f1d7118ddb81a47636fe8",
        "87462191321fa7bc339e8da1dcee4349c2a6fcc5c2fe0f1e4daf45953fd83912",
        "4da2f42a3bbbd816df0e221ab7519af7362890c8600ca9dda750af841dd9ef00",
        "9a83b5a8e7aacf234618b6979b7432c5fbc664a8a5abe2d8418a315acc19ac3f",
        "5ba28232a764dd849f8b08d7e21ac0f0c24f40292ec74fa47d259b7d781fd272",
        "2f7390e93c1de2d3706136bdd7d7d051598d737d6230aecf10c631ce0c022583",
        "93a95f5c18dc138a56aca7a11b65b8fa3f3a676e8a4dd73fd52a05640c65ab5d",
        "5266af847475418542c9d82dbe5fb2d34860e493970b4c803e873fb084a4499b",
        "36cca2dd3b0f2eaac69f742a23c35ea7ec3770fb7b31ffeedc1ab2f64ea0e1c4",
        "2db2d8efef2cb4cb6985e5abb686bade2fdcc75b4d41e476d20e2efdb95183ae",
        "08a6ed01e586bfc748c92120e452b1832560785ed8f77de23b91800229ffb73f",
        "ce83060b311efc362310789d169f18d8f0ed8d985d837c56c1e2f53a3c7631fe",
    ),
    CurveKind.OPTR: (
        "22c77384ec720e507157465244e99e67217909b360141b38c94a41b67b83a17a",
        "8c186893fc7f43a7dce4967f31063dd27e4d57651f326bab7a5b3f3e0e3cb46b",
        "977ef0c649cf6a89069f9e09d1123acf131e68aa1ba3b959cdfcb7f57ec196f2",
        "a4df85ec11364b8dbac2bf1ad76694c5effa9e08bf7d109ad2287498d8b25efc",
        "3687298fb52cd34ac971faae55fb6c3599a24ff76c57903ca72065219a5ad9a6",
        "61d2bcffed3a4cc1498c822375126c1f09df02911f3f7c719ccf7db1394adf6b",
        "17c840e68d00b7e4326499d63b90b94d961980c1bc8ccc725fe0ba1b7e7c54a2",
        "23ec98b721c1f4c2e8d3fa9c10ebf6e15c812c642c6e5e2ff0f6d61e14806c4f",
        "3f4fe3b21e69d814a6073e769b68e6fa5568f4a05642a2fa9c036cf8e8eed32e",
        "822cb6d5f9d8b486020ea6e194806c856397b36b7947451a5afc6cd25cb4562c",
        "b04fd314c1c536d2eb48f4c8da4955d0b92e0f2dd4edb80c079aabcbe986fd2e",
        "5d635d558d4bab53e6c91c5a37adba874e12832454bf58f9d3b15f9767d6c8ed",
        "907b32aaff38aba0655e19cec45306a37eed105238fa310fd9d661c3b20d8025",
    ),
    CurveKind.SWEEP: (
        "22c77384ec720e507157465244e99e67217909b360141b38c94a41b67b83a17a",
        "f37aa02294982d70228a7f2c8ac352a7785ee6b4508abb1d85ea27390e2c0994",
        "e7146b338eb4bd5044119ee40569826a940e43030ad657916899ed75edd7c6ec",
        "8779d275a3f25bb06c13ec77deea356d665d640bc6602f047f5dd271595b10d2",
        "eb42f4bd47c7ad6662d89840fc62545fb766ddaf5c51be464c033cdc99f6a9a7",
        "8db9177452026e5b32148d6084d69f4bf519e4ae9ab1de582ceda2ddfbccbad2",
        "071f1510d30b5a354b2e00d520bcce292eaedfbf7195d09036becb50071dc1b1",
        "ef3009ba779e72dc83850f8910725f8a2d55a8ffed7f7a45599cbd88e3f3564f",
        "8955cde481fbfbaafd9c4b0875127fc5ea193173c1d99c75cbbd2c74fb8c9f14",
        "7e64181e3e20d03d22eb2a5a4d3566a7290aea9fb624bf01c45b3fde98dc4cab",
        "78a587e250df2685c48a91e1d2cb0deadf79fd5922fbd7e37c93c4d06c451b4e",
        "ea24a7c6c8165d418249f62eb2be1ca29e3354146ea59ace3ac7ea15a4a8c232",
        "a9cbdb46dfe9e9b3391509aa22e7499334aa4c02f08c47449c410bceeb288d38",
    ),
    CurveKind.SCAN: (
        "c77c6842b53615d05b59a1dc975d458ad197e7f1f58f25d3673ab0e158c5e5ac",
        "6cd05366b45fab61d5b08437f1cb591f59ed641d28d8553592a4be50fde5c602",
        "0219251a0bce176baae76ee1f9f02eb15a05c2d54a09f9e5d7bb3c10103f9bfc",
        "072805623b51fbfc87d330ef35499129b422d4afa4947e2b77c1509bb1f83e5b",
        "4bd4b02bc04c7a6b659a6b4793c7773552b4fafb2b76f807dde91b8a9ebecec0",
        "d667ea16253930f0b5776158a72c883f4b13c28ff74fd3d31f6702145dd968cd",
        "bc8f0cc9395308486e86c831238e1494fd1d0b26690ff36f3d9e1078679a88b0",
        "3ce8b153a7033d0099390b11b4f53bcc3b71fb1096d0aeb0cfd7e7892488a038",
        "1f82e6f1c1638d10940b55dd793524ef856bad211c78e3c8691530fca5174afb",
        "170212cb81902a3bd2e6b1afde6eb1946fe9ea9c9853005a622b0fd68d21d083",
        "dceea1d4b2ae17ce631867eba0185f558896735ed0b37daea2e3f1af55b6d64a",
        "ce4c50e81b909c46d495639bba72eeb679a671c1ff76b727f81a7c0147f1be72",
        "0074eff42eecb0df6de8d28e526a3de7abfac2ca1f36f99653f05d5182ed5d28",
    ),
    CurveKind.DIAGONAL: (
        "22c77384ec720e507157465244e99e67217909b360141b38c94a41b67b83a17a",
        "f189d971c5dfde50acc165ea6e5ab1f7013f97939da1233a5786bf570c551d7f",
        "377102e96f85c5de804a34c5b779f836b9a7c0b4f635749dce9ed90a737263aa",
        "59a411f52cec33f26c0a473e97c8f05708a73a42178e2903aad9afa8969e90a7",
        "a024d6ef0e314a830386352ac5049a70b6a71b8b51dcb2f69597fe8d6a186cf2",
        "41946c135714319d432237a99c3430a2b1d64982a17f366bd712430906d726e3",
        "6fcd59f65a5f2448e32a9e5faefa6f7d09ffeecf5fa52c5a165d2629bfd33926",
        "b0104f96ca57c214737b951be2bf63993ff90c8e5d08de2a9a1215724038dda8",
        "ccbe4b942e618281cdb7fb899e8fb2e49e23d3242da7ec9fbfa7ad3ba31f2ad1",
        "fba9cdbd8e93d775ab486e7c2f5c69d19b315580d06919735104d4133ce4a1b0",
        "153b9d74792c3d9ff6e409e7f72bd4701451f33c9096401bde8a38e37e53aef7",
        "3d99612c1ff28c76ea4d6adc6c6d7fd78400ab7ca1d60dbe07dbfc24814c6af8",
        "c15d6056c217bc52f8cca26193461247696c601ccd63b5d45f6363418fe1ab92",
    ),
}


def table_sha256(cm, block=1 << 22):
    # widened a block at a time: an order-13 table as uint32 would be 268 MB
    h = hashlib.sha256()
    for table in (cm.xs, cm.ys):
        for start in range(0, table.size, block):
            h.update(table[start:start + block].astype("<u4").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
def test_table_digest_pinned(kind, k):
    assert table_sha256(build_curve(kind, k)) == TABLE_SHA256[kind][k - 1]


# --- conventions --------------------------------------------------------------

def test_z_order1_table():
    # x from odd bit positions, y from even bit positions of the index
    cm = build_curve(CurveKind.Z, 1)
    assert points(cm) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_z_order2_bit_split():
    cm = build_curve(CurveKind.Z, 2)
    assert index_to_point(cm, 0) == (0, 0)
    # t=6 = 0b0110: odd bits -> x=0b01, even bits -> y=0b10
    assert index_to_point(cm, 6) == (1, 2)


def test_sweep_is_row_major():
    cm = build_curve(CurveKind.SWEEP, 1)
    assert points(cm) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    cm3 = build_curve(CurveKind.SWEEP, 3)
    assert index_to_point(cm3, 9) == (1, 1)
    assert point_to_index(cm3, 1, 1) == 9


def test_scan_alternates_row_direction():
    cm = build_curve(CurveKind.SCAN, 2)
    assert points(cm) == [
        (0, 0), (1, 0), (2, 0), (3, 0),
        (3, 1), (2, 1), (1, 1), (0, 1),
        (0, 2), (1, 2), (2, 2), (3, 2),
        (3, 3), (2, 3), (1, 3), (0, 3),
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_diagonal_matches_loop_construction(k):
    cm = build_curve(CurveKind.DIAGONAL, k)
    assert points(cm) == diagonal_by_loop(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hilbert_matches_recursive_construction(k):
    cm = build_curve(CurveKind.HILBERT, k)
    assert points(cm) == hilbert_by_recursion(k)


@pytest.mark.parametrize("kind", list(REFERENCE_BUILDERS))
@pytest.mark.parametrize("k", range(1, 9))
def test_builder_matches_reference_algorithm(kind, k):
    xs, ys = REFERENCE_BUILDERS[kind](k)
    cm = build_curve(kind, k)
    assert np.array_equal(cm.xs, xs) and np.array_equal(cm.ys, ys)


def test_h_order3_frozen_table():
    assert points(build_curve(CurveKind.H, 3)) == H_K3_TABLE


def test_optr_order3_frozen_table():
    assert points(build_curve(CurveKind.OPTR, 3)) == OPTR_K3_TABLE


@pytest.mark.parametrize("kind", GRAMMAR_KINDS)
def test_grammar_table_is_closed(kind):
    # every state reachable from the start visits its four quadrants once
    # each, and every child state has a row of its own
    qdx, qdy, child, start = curves._GRAMMARS[kind]
    seen, todo = {start}, [start]
    while todo:
        state = todo.pop()
        assert sorted(zip(qdx[state].tolist(), qdy[state].tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for c in child[state].tolist():
            assert c < len(child) == len(qdx) == len(qdy)
            if c not in seen:
                seen.add(c)
                todo.append(c)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_build_holds_little_more_than_its_tables(kind):
    tracemalloc.start()
    try:
        cm = build_curve(kind, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (cm.xs.nbytes + cm.ys.nbytes)


def test_gray_is_reflected_binary_reindexing_of_z():
    k = 3
    z = build_curve(CurveKind.Z, k)
    gray = build_curve(CurveKind.GRAY, k)
    for t in range(4**k):
        g = t ^ (t >> 1)
        assert index_to_point(gray, t) == index_to_point(z, g)


# --- bijectivity and lookups ---------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
def test_forward_inverse_are_mutual(kind, k):
    cm = build_curve(kind, k)
    n = cm.n
    assert np.array_equal(cm.inverse[cm.ys, cm.xs], np.arange(n * n))
    assert cm.inverse.dtype == np.uint32 and cm.inverse.shape == (n, n)
    assert len(set(points(cm))) == n * n
    assert cm.xs.max() < n and cm.ys.max() < n


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_point_index_roundtrip(kind):
    cm = build_curve(kind, 3)
    for t in range(64):
        x, y = index_to_point(cm, t)
        assert point_to_index(cm, x, y) == t


def test_build_is_deterministic():
    a = build_curve(CurveKind.OPTR, 4)
    b = build_curve(CurveKind.OPTR, 4)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.inverse, b.inverse)


def test_get_curve_caches():
    assert get_curve(CurveKind.H, 4) is get_curve(CurveKind.H, 4)


def test_tables_are_readonly():
    cm = build_curve(CurveKind.Z, 2)
    assert "inverse" not in cm.__dict__  # built on first use
    for table in (cm.xs, cm.ys, cm.inverse):
        with pytest.raises(ValueError):
            table[0] = 1
    assert "inverse" in cm.__dict__


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_blockwise_inverse_matches_one_shot(kind, monkeypatch):
    monkeypatch.setattr(curves, "_INVERSE_BLOCK", 37)  # blocks that end mid-row
    cm = build_curve(kind, 5)
    want = np.empty((cm.n, cm.n), dtype=np.uint32)
    want[cm.ys, cm.xs] = np.arange(cm.size, dtype=np.uint32)
    inverse = cm.inverse
    assert inverse.dtype == np.uint32 and inverse.shape == (cm.n, cm.n)
    assert np.array_equal(inverse, want)
    assert not inverse.flags.writeable


# --- image grids ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", range(1, 9))
def test_scatter_gather_match_coordinate_tables(kind, k):
    cm = build_curve(kind, k)
    seq = np.random.default_rng(k).standard_normal(cm.size)
    # a full sequence, then a short one that fills its own cells and leaves the rest zero
    for m in (cm.size, cm.size // 3 + 1):
        want = np.zeros((cm.n, cm.n))
        want[cm.ys[:m], cm.xs[:m]] = seq[:m]
        grid = SfcImage(kind, k, m, seq[:m]).pixels
        assert grid.dtype == np.float64 and np.array_equal(grid, want)


# --- validation ----------------------------------------------------------------

@pytest.mark.parametrize("bad", [0, -1, MAX_ORDER + 1])
def test_order_out_of_range_rejected(bad):
    with pytest.raises(ValueError, match="order"):
        build_curve(CurveKind.Z, bad)


def test_index_out_of_range_rejected():
    cm = build_curve(CurveKind.Z, 2)
    for t in (-1, 16):
        with pytest.raises(IndexError):
            index_to_point(cm, t)


def test_point_out_of_grid_rejected():
    cm = build_curve(CurveKind.Z, 2)
    for p in ((-1, 0), (0, 4), (4, 4)):
        with pytest.raises(IndexError):
            point_to_index(cm, *p)


@pytest.mark.parametrize("call", [
    lambda cm, v: build_curve(CurveKind.Z, v),
    lambda cm, v: index_to_point(cm, v),
    lambda cm, v: point_to_index(cm, v, 2),
    lambda cm, v: point_to_index(cm, 2, v),
    lambda cm, v: grid_distance(cm, v, 0, 1),
    lambda cm, v: grid_distance(cm, 0, v, 1),
    lambda cm, v: check_equivariance(CurveKind.Z, 2, Kernel(1, np.ones((2, 2))), np.zeros(16), v),
    lambda cm, v: sweep_lemma(CurveKind.Z, [v + 1], [1], trials=1),
    lambda cm, v: sweep_lemma(CurveKind.Z, [2], [v], trials=1),
    lambda cm, v: AudioClip(np.zeros(4), v),
    lambda cm, v: AudioClip._own(np.zeros(4), v),
    lambda cm, v: circular_shift(np.arange(4), v),
    lambda cm, v: ShiftParams(v),
    lambda cm, v: ShiftParams(0, rng_seed=v),
    lambda cm, v: CenterParams(w=v),
    lambda cm, v: MixupParams(rng_seed=v),
    lambda cm, v: worst_case_profile(cm, [v]),
    lambda cm, v: build_curve(v, 2),
    lambda cm, v: get_curve(v, 2),
    lambda cm, v: SfcImage(v, 2, 3, np.zeros(3)),
    lambda cm, v: check_equivariance(v, 2, Kernel(1, np.ones((2, 2))), np.zeros(16), 1),
    lambda cm, v: sweep_lemma(v, [2], [1], trials=1),
], ids=["build_curve", "index_to_point", "point_to_index.x", "point_to_index.y", "grid_distance.i",
        "grid_distance.j", "check_equivariance.d", "sweep_lemma.k", "sweep_lemma.l", "AudioClip.sample_rate",
        "AudioClip._own.sample_rate", "circular_shift.r", "ShiftParams.max_shift", "ShiftParams.rng_seed",
        "CenterParams.w", "MixupParams.rng_seed", "worst_case_profile.gaps", "build_curve.kind",
        "get_curve.kind", "SfcImage.kind", "check_equivariance.kind", "sweep_lemma.kind"])
def test_integer_arguments_refuse_floats(call):
    cm = build_curve(CurveKind.Z, 2)
    call(cm, cm.xs[2])  # a numpy integer (uint16 1) passes; as a curve id it is z
    for value in (1.5, 1.0):  # a float is refused, not truncated, even when whole
        with pytest.raises(TypeError):
            call(cm, value)


def test_kind_names_and_ids():
    assert [int(k) for k in ALL_KINDS] == list(range(8))
    assert [k.name for k in ALL_KINDS] == [
        "HILBERT", "Z", "GRAY", "H", "OPTR", "SWEEP", "SCAN", "DIAGONAL",
    ]
    assert CurveKind.from_name("  Hilbert ") is CurveKind.HILBERT
    with pytest.raises(ValueError, match="unknown curve"):
        CurveKind.from_name("peano")


# --- continuity ------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_jump_positions_match_loop_oracle(kind, k):
    cm = build_curve(kind, k)
    assert jump_positions(cm).tolist() == jumps_by_loop(cm)


def test_sweep_jumps_at_row_boundaries():
    cm = build_curve(CurveKind.SWEEP, 3)
    assert jump_positions(cm).tolist() == [7, 15, 23, 31, 39, 47, 55]


@pytest.mark.parametrize("kind", [CurveKind.HILBERT, CurveKind.H, CurveKind.OPTR,
                                  CurveKind.SCAN, CurveKind.DIAGONAL])
def test_continuous_kinds_have_no_jumps_k3(kind):
    assert jump_positions(build_curve(kind, 3)).size == 0


def test_z_and_gray_jump_counts_k3():
    assert jump_positions(build_curve(CurveKind.Z, 3)).size == 7
    assert jump_positions(build_curve(CurveKind.GRAY, 3)).size == 15


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_order1_has_no_jumps(kind):
    # on a 2x2 grid every pair of cells is within one king move, so no
    # curve can jump at order 1
    assert jump_positions(build_curve(kind, 1)).size == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_hilbert_steps_are_unit_l1(k):
    cm = build_curve(CurveKind.HILBERT, k)
    dx = np.abs(np.diff(cm.xs.astype(int)))
    dy = np.abs(np.diff(cm.ys.astype(int)))
    assert np.all(dx + dy == 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_h_curve_is_closed_king_tour(k):
    cm = build_curve(CurveKind.H, k)
    dx = np.abs(np.diff(cm.xs.astype(int)))
    dy = np.abs(np.diff(cm.ys.astype(int)))
    assert np.all(np.maximum(dx, dy) == 1)
    # the tour closes: last cell is one king move from the first
    wrap = max(abs(int(cm.xs[-1]) - int(cm.xs[0])), abs(int(cm.ys[-1]) - int(cm.ys[0])))
    assert wrap == 1


# --- recursive structure -----------------------------------------------------------

@pytest.mark.parametrize("kind", GRAMMAR_KINDS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_first_quarter_fills_one_quadrant(kind, k):
    cm = build_curve(kind, k)
    q = 4 ** (k - 1)
    m = cm.n // 2
    qx = cm.xs[:q].astype(int)
    qy = cm.ys[:q].astype(int)
    assert len({(x, y) for x, y in zip(qx, qy)}) == q
    assert qx.max() - qx.min() == m - 1 and qy.max() - qy.min() == m - 1
    assert qx.min() in (0, m) and qy.min() in (0, m)
