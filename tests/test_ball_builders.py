"""The one ball builder (`cube_complex.rising_ball`) behind `ball_X`,
`ball_Xe` and `davis_ball`: SHA-256 pins of their JSON and DOT output, the
hand-written square enumerations it replaced, and the id-step builder
`grown_ball` that fed it ids before the callers indexed their own points,
all kept as oracles."""

import functools
import hashlib
import itertools
import tracemalloc
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubikit import building as bd
from cubikit import cube_complex as cc
from cubikit import graph_core as gc
from cubikit import raag_geometry as rg

from .strategies import defining_graphs

FIXTURES = {
    "single_vertex": gc.single_vertex,
    "k2": gc.k2,
    "path3": gc.path3,
    "square4": gc.square4,
    "discrete2": lambda: gc.discrete(2),
    "pentagon": gc.pentagon,
}

BUILDERS = {
    "X": rg.ball_X,
    "Xe": rg.ball_Xe,
    "davis": lambda g, radius: bd.davis_ball(g, radius).ball,
}

# (builder, fixture, radius) -> (sha256 of to_json(), sha256 of to_dot())
GOLDEN_BALLS = {
    ("X", "single_vertex", 1): (
        "15fc01eddaa71d8f43d6aeb496b1a76f912f52ccc2838c9164b6ac1625ccc7e5",
        "4eb294ce75524cc91eb6b2b2885cda4b2c1ae9efc132c28168710bb57709f8a3"),
    ("Xe", "single_vertex", 1): (
        "80669f5e2fc8b7e6ff2e367bf90e51d2793341f4fcd22429cadc37fe701e2160",
        "9b6cdaaff43e7f806301b5bf41c58b917923186d3afb02a6b6871452e9c2eca2"),
    ("davis", "single_vertex", 1): (
        "62a41af0e76d588aad3dfd78d48da95270743a28887a3657d65a2b89b56a0b11",
        "3171d748992bbb3dc8d9ad68bcc03bde409420369f783df2b62422fbc1807bae"),
    ("X", "single_vertex", 2): (
        "52d6f1fa47984d783efcc766d711955293a4b2c7664a19906a223e419cfa8701",
        "827d5a2b340ca829c4eb977b902c7f85f5c3eae3dbeefb29a6fe2455947926ec"),
    ("Xe", "single_vertex", 2): (
        "d56d2c6e56f0b8aeadcf34cb1248b9a680f6a2675f38b58bf649f0cffb40bf59",
        "2e7ebd7393263d6609382b7442d6b5180554dff775f78ac925f11f0346f15d9d"),
    ("davis", "single_vertex", 2): (
        "216b4fc9ae64796eb2878abb51a17c5f4209615f95af15e26138a86997a2a034",
        "462edfb2457beaa5fc844e1573e05c0e13cccaec5157c0544d1fe2878a6a0923"),
    ("X", "single_vertex", 3): (
        "d1551ab59845fac9eac27ab2d5866306f4b032312ba09e9ca6ede9a7c5e61f87",
        "50bdf8ea31f046d40bf9d207af018b445f65adf1cdcf59d6d7a9648e57364623"),
    ("Xe", "single_vertex", 3): (
        "96b3d4b96af65baaafc15500b92e5c2091243d4d30ccfc4b3eb7ebeab3e1c494",
        "dc3e52651496d97b61b76defc85489968f29af18f2dba4f14338a67eed08202e"),
    ("davis", "single_vertex", 3): (
        "b8a96087e0f19bb4937291261f321fce8213607bf9a157e631079a0fcdd9ad3b",
        "3008726dc6635e769bce81718655209ed42a92858986b9389221a8f749b9caaf"),
    ("X", "k2", 1): (
        "33b54b4b0bc92baf17bf3aaef5ca00348a4e1f8d16718848ce39ab59e4a7f29a",
        "e584b8a4a54d2c9708199039aa064d8fabba585bc25acd40e9d66bec6bb5358a"),
    ("Xe", "k2", 1): (
        "b81752c68c9230a8213119f52cc03a70b13bdeaa3721d82430edd3c434658803",
        "fe2f109b92226d8093db65798970ccd6c2d3f1b156e26f39c3cdd3ba71da89fc"),
    ("davis", "k2", 1): (
        "d7f610110a1f488b06f6847a20486ae5ed5be58eaf5e7024351419c4a8d6f804",
        "0dff46c0af4bd5b57ccc1ed3604b8328d31bce77c2c00d7502312c7654d7a814"),
    ("X", "k2", 2): (
        "553c31e3798992a0db8fd33cd1328653e321e07a18ea53784cbb1765000fd4d1",
        "e7092df5a099df8bf70da7902140d5e9c206d3644a95cf3c90293164c40d9c1b"),
    ("Xe", "k2", 2): (
        "599608a26f4c14c4c0f1935a6d4ca6b23b4886ece83039eca13231e35af4dae2",
        "c0cc270475a815ec54a9a0573f497de55fbb4cb8cfe6e52a3951b49815dafaaf"),
    ("davis", "k2", 2): (
        "3e5307de04f450464aa71f81f9fcd7b488d6f386ba317bf24d7b077876265f0a",
        "5428910bdb6dfdb129f013b95878cf0ef69fba46314503accc61ededa616ad93"),
    ("X", "k2", 3): (
        "5e38a9b143930116f648395e3e8c67c50a35f988ebb1c430bc296b31080a8449",
        "d36678b68837e5b3bf2247b6b43ccb98d5446a16f36475a7a37aa115b3ee64b8"),
    ("Xe", "k2", 3): (
        "74a48fa8473962538c48ccba354e69b2b882e7c4fbd857e7fe9961af7db6bc53",
        "5726b8061d0279b00ed9ef18ec9a2d4486a348fc94a3c8bf9edde41d55b900ff"),
    ("davis", "k2", 3): (
        "f1b8032e40ad65833254f973a55774f1b4b38430ed5016aec222f1892af2677c",
        "ea30867a6073111e3cf396c9af37902448ebc6e903191deb4fbcefe8b7bae649"),
    ("X", "path3", 1): (
        "cd57a14ae4a2e9587ddeff8e2050655155d0f7484de45079322f927d97c7dae7",
        "987fdd64843048f29cfc9312d53cc1d5ca960e12aad46230cd3e66e491596d21"),
    ("Xe", "path3", 1): (
        "3da13db8f11fa932e503e3dd77de1f024e1f7faadff47031632c3729ed59a034",
        "9f28d81ca02db9f7762b0b78aa70d6ab0e3e2661e59b8ba21fe72626efc12072"),
    ("davis", "path3", 1): (
        "bde8c05361f6ec70ede04b842e468e3a39df0627a1b8cafb75c4f1c69b705149",
        "120278a5ac6073fb7a40495d8b04d3c68faa115556d09712409c6d6f39320690"),
    ("X", "path3", 2): (
        "a982163c5f53bc7150bfb4f6965aa4ef841d4ec02a85c248066fd4bc72b10857",
        "bc102937b076a19afa31ba72f005db0fccaee15890b03f85d8073415c504cd6e"),
    ("Xe", "path3", 2): (
        "021239c6bf77f655496a8136957b11b8224dfaa9d1a48b6244e0c77034953a3d",
        "e209d2b6af77d62de7f5fc332891dd07d563d948d21986b75b852dfeb7fd9a49"),
    ("davis", "path3", 2): (
        "18256e84127777eee6d598d5a4bd2ea6c72cbe498dd7bb5f9aea0a478b0766a1",
        "3ab22d4cae9efdefd7d80629ef3936b93c099b18ad77447cf18ef2c64f1d3598"),
    ("X", "path3", 3): (
        "04f22052e43cbd5943ac1ddd67c12a8303b6cea47205f4ea83d53ca7663d62f0",
        "9856549dfe0346d1bd6f460b8f19adfd6c43dc452d4069c7aebba89ac0744626"),
    ("Xe", "path3", 3): (
        "3382b15f7762ce2c4a8b9cb15505a7ebe55c29073ccb7edf1b542a044c655dfe",
        "38e564a107520164df86e1dc7b61d84ff70d468874262cdff544225b1c1186f6"),
    ("davis", "path3", 3): (
        "9165a5d9dbe153803d683f1c31fdbdc14c8d2359aeb5feb0df0abb240b0c59d8",
        "2bbefcee78b4c69b0cbafc5f5efa067cd9410f1af2e98ec815dafc50ca2d910a"),
    ("X", "square4", 1): (
        "2320ad7c18efb9dcc1d74a19455a749ba2cf7f358eb18bba336af9d10e761be0",
        "0bea32fc7f38e733802c7468b8ea38f9d551aeaf67fe0a932490d2392bf5b1e1"),
    ("Xe", "square4", 1): (
        "7966acef744b10c89f7edcf5ac15525aee701faaca3f964873242323b44cfa04",
        "9fc831877f2b3e630c37d50c2a87c4968e4fe726ea01d1088471761d2ec5ad80"),
    ("davis", "square4", 1): (
        "63ca1364a0d8aad6bd95a1e5d55d4b9ecef8f19d2ca555a1ddee1f4a27765ed5",
        "0d3a99d66ab99b2747649d1d7ef1f0747af9bc90040f36504c66d77dea71033e"),
    ("X", "square4", 2): (
        "f38b77d0f79f21303615503788f9afbe6f49df8a57bd30d835e4d0a1e8870ff7",
        "3a9053c76f324e0ca4a88287d3f2428c5a30559300238f177c3fcd904d209ec2"),
    ("Xe", "square4", 2): (
        "501ce3bc9998f1c94cd2342b9484e4f1ce2d92b6a73af55ed762b2c98004901a",
        "9832d9d0a87d861c1c7d60a67d28b07ca10de5fe96c24fa56531b834acbd438a"),
    ("davis", "square4", 2): (
        "08d16e9806f747eb4a599df1bec19c46987251766137b1c34c806c58c50fefb3",
        "da3520e9ad5ede03884b6c6a173be546b0b23c9a43ae6a9215850f86a6560685"),
    ("X", "square4", 3): (
        "e5d6417745d342db2b15fee07e45f8535e5f58e1549f2614be084aa92c5d69a8",
        "f2926f9ba170615cfab5c1fadc747f26d2e164ced56ee1dc3f5b21968cc81e25"),
    ("Xe", "square4", 3): (
        "42284f1bb688d88f95e167b29c7804773beda2edcee1f17ee801d20a7654809c",
        "893cdd071536f77fe2afd0a931e4691edbd463ab8080544d1a675e1a3108b7bd"),
    ("davis", "square4", 3): (
        "b7377b68e02f26134f06ca42eb4dae6cf11367d84ba6513614242d59b15148ad",
        "6eeacc3a179478514c20a53e5c4a67d28f2afca6ed0610b545b2b359b5e95680"),
    ("X", "discrete2", 1): (
        "9400d8d7e3cf0f6f799b7e847affdd92325bad7e4f95d6a76d227932a4cd4d33",
        "8caa2442651fddf70413846e5814241ddd83c0af78c2531b1d6c9875f4ee1ec8"),
    ("Xe", "discrete2", 1): (
        "f63fcf4f6d6aac2bd5fad090f4eb3522a0b31a57725f7bf83ba017fb97a5bfff",
        "b7f59ad9f0e4c8a5c1639d72efd83c4120d76a2de588e0c4efb22bf2d39fc043"),
    ("davis", "discrete2", 1): (
        "cb083c51cd91a2eb458a3fce05ad7defcdfe91b3512c9e95e7a92c1037c5cebb",
        "5ba527db7a522e98a56ab7494d74efd230840c7fb297b98f9e84a232d5d3454f"),
    ("X", "discrete2", 2): (
        "03da8d667e8de96e56b5bccb4d431762c7408150ae30798bbef6c6226fe80e05",
        "0d5dbe1a9db19cb1ac86a0e4cfe2b6ffcdd03c6662fc890b91fdd12e76fe1f17"),
    ("Xe", "discrete2", 2): (
        "b84bc1827f6e97add637da1d9f9a17e3c3da39f3fa50720ec86a31b71289c671",
        "e2946d6a56086d6feac1d505c09aa5cdb543aa2d9be8e799f9586f0519c379d8"),
    ("davis", "discrete2", 2): (
        "2e2ac4c2a13c79ca11258474f2b63e7fe0538e0535524c77d80ba596416cc189",
        "06dfc375e1ebe38cb98930451978cf31cb96d8f5b5592e572f095a52b5d2f876"),
    ("X", "discrete2", 3): (
        "59dd40e72007866241ce4ab09bb1b1f1354f1bbb853aa318f3d1c1a2a07a1968",
        "601290eb7490b5ba43ddb3cbd5308c893bf0838e050491fb46a6a865cd7abcd1"),
    ("Xe", "discrete2", 3): (
        "210d8d8862d3e1733f2f8233676c257ae9b3f7c306034a1ef7ec603b5e9ab087",
        "31fe53aa9f10a3ca5d311d4142b3c948be7187572b0620135432f29f1a1bc03c"),
    ("davis", "discrete2", 3): (
        "c980e9180622cb7c56139e8fad45e458133bdf9b86a3612a7e409f722f4ddaac",
        "879cf7b8728d72acebad387e37c3d53fb8d737473d5277496f67dbd0a3e176fa"),
    ("X", "pentagon", 1): (
        "7aeb2f9c461ce15baf982f667e26f52f8fc01b303029bfdd060b9865ec686286",
        "6f868dcc0be57280414b88cab3c480764aad90df74ec47dfe57d387c6ffa6a5d"),
    ("Xe", "pentagon", 1): (
        "c13901143664f95047c0f9b5dd50e3edb6f671921b3484650ad2ede7956bbb7e",
        "794400d95a19c50557658985968eab8a4bf5b788925dc423eff1f8550ac7cc71"),
    ("davis", "pentagon", 1): (
        "53e0092a1348dba76400202511af0bc6ae991951b373c2d0ab90dc1e4f1048ad",
        "ebaf602dc282fb7c4ed7d9374a19a0bc0f75bda74665bd56fa963c7e2af21993"),
    ("X", "pentagon", 2): (
        "32b8c89f7a75bbe7d122dd3a1c17be7f03b179b26b7b1acdb369fc3b527ab12a",
        "0e23a3785972bd1fff8295cc5ad11e69575b34f13e475a806ca414b9b1e948f2"),
    ("Xe", "pentagon", 2): (
        "394de8c83f5a813e8b47277608b3f3a67b137224233cf0a094693ce9a336c33c",
        "205895c80a5b78b0346220be0a85ad3d1105b93770a53a662ba2fc4687d28aab"),
    ("davis", "pentagon", 2): (
        "8fd7dbdff9b75e922cfe22132b515c6258f5c10bf3798f1619a1bae7d92f8609",
        "7c468c0aa7de8cc5d36e698559ac6c639c91701ff56b4753db0e85a22466eba6"),
    ("X", "pentagon", 3): (
        "86742e5615ac9bd3dd788b57b0f29a4c36dbcfd94ef1f15bce702854b38c6e03",
        "b3d74934eccec447bb84df55cdb6d9805e70f1870174011c9a0b37885be2b442"),
    ("Xe", "pentagon", 3): (
        "24a7d9afa624fcd77f6a5d834cb915d2bff809e8314561ca55e9e01f500a4fac",
        "6711e923353b894d2952aa1e97ef3a21852d20e95cb17bfc8319b13231e4c3cf"),
    ("davis", "pentagon", 3): (
        "7067fce9039ce0906dce0e390480a73330b7e0696a54654452974211be81051d",
        "d34053a99204d3044baa5e6168b1475105fcec1c4643bfbf6042b57d98f0e8e3"),
}

GOLDEN_BALL_X_PENTAGON_R4_JSON = \
    "dd100316cb1995c193ba6353dd53e1562f3d9e23a81fea558a1e2dd06452506b"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind,name,radius", sorted(GOLDEN_BALLS))
def test_ball_pins(kind, name, radius):
    ball = BUILDERS[kind](FIXTURES[name](), radius)
    assert (sha256(ball.to_json()), sha256(ball.to_dot())) == \
        GOLDEN_BALLS[kind, name, radius]


@pytest.fixture(scope="module")
def pentagon_r4():
    return rg.ball_X(gc.pentagon(), 4)


def test_ball_x_pentagon_radius4_pin(pentagon_r4):
    assert sha256(pentagon_r4.to_json()) == GOLDEN_BALL_X_PENTAGON_R4_JSON


def test_hyperplanes_pentagon_radius4_traced_peak(pentagon_r4):
    """Each hyperplane stores its far side only, and all share one vertex
    set: storing every near side, nearly the whole ball per class, peaks
    near 270 MiB here."""
    tracemalloc.start()
    try:
        hps = cc.hyperplanes(pentagon_r4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert all(h.vertex_ids is pentagon_r4.vertex_ids for h in hps)


# ---------------------------------------------------------------------------
# oracles: each builder's own edge loop and square enumeration
# ---------------------------------------------------------------------------

def ball_x_oracle(g, radius):
    """Edges by positive letters, squares from commuting pairs."""
    mul = rg.mul
    verts = sorted(rg.group_ball(g, radius),
                   key=lambda w: (len(w), rg.word_str(w)))
    elements = set(verts)
    ids = {w: rg.word_str(w) for w in verts}
    edges = []
    for h in verts:
        for v in g.vertices:
            h2 = mul(g, h, ((v, 1),))
            if h2 in elements:
                edges.append((ids[h], ids[h2], v))
    squares = []
    for h in verts:
        for i, u in enumerate(g.vertices):
            for v in g.vertices[i + 1:]:
                if not g.adjacent(u, v):
                    continue
                for eu in (1, -1):
                    for ev in (1, -1):
                        a = mul(g, h, ((u, eu),))
                        b = mul(g, h, ((v, ev),))
                        c = mul(g, a, ((v, ev),))
                        if a in elements and b in elements and c in elements:
                            squares.append((ids[h], ids[a], ids[c], ids[b]))
    depth = {ids[w]: radius - len(w) for w in verts}
    return cc.CubeComplexBall.make([ids[w] for w in verts], edges, squares,
                                   depth)


def ball_xe_oracle(g, radius):
    """BFS over (element, clique); vertical-vertical, vertical-horizontal
    and horizontal-horizontal squares by cases."""
    mul = rg.mul
    start = ((), ())
    dist = {start: 0}
    dq = deque([start])
    while dq:
        h, cl = dq.popleft()
        d = dist[(h, cl)]
        if d == radius:
            continue
        nbrs = [(mul(g, h, ((v, e),)), cl) for v in cl for e in (1, -1)]
        nbrs += [(h, tuple(x for x in cl if x != w)) for w in cl]
        nbrs += [(h, g.sorted_subset(set(cl) | {w})) for w in g.vertices
                 if w not in cl and all(g.adjacent(w, x) for x in cl)]
        for n in nbrs:
            if n not in dist:
                dist[n] = d + 1
                dq.append(n)
    verts = sorted(dist, key=lambda p: (dist[p], rg.xe_id(*p)))
    ids = {p: rg.xe_id(*p) for p in verts}
    present = set(verts)
    edges = []
    for h, cl in verts:
        for v in cl:
            h2 = (mul(g, h, ((v, 1),)), cl)
            if h2 in present:
                edges.append((ids[(h, cl)], ids[h2], f"v:{v}"))
        for w in cl:
            down = (h, tuple(x for x in cl if x != w))
            if down in present:
                edges.append((ids[(h, cl)], ids[down], f"h:{w}"))
    squares = []
    for h, cl in verts:
        for i, u in enumerate(cl):
            for v in cl[i + 1:]:
                for eu in (1, -1):
                    for ev in (1, -1):
                        a = (mul(g, h, ((u, eu),)), cl)
                        b = (mul(g, h, ((v, ev),)), cl)
                        c = (mul(g, a[0], ((v, ev),)), cl)
                        if a in present and b in present and c in present:
                            squares.append((ids[(h, cl)], ids[a], ids[c],
                                            ids[b]))
        for w in cl:
            down = tuple(x for x in cl if x != w)
            if (h, down) not in present:
                continue
            for v in down:
                for ev in (1, -1):
                    a = (mul(g, h, ((v, ev),)), cl)
                    b = (mul(g, h, ((v, ev),)), down)
                    if a in present and b in present:
                        squares.append((ids[(h, cl)], ids[a], ids[b],
                                        ids[(h, down)]))
            for w2 in down:
                down2 = tuple(x for x in cl if x != w2)
                dd = tuple(x for x in down if x != w2)
                if (h, down2) in present and (h, dd) in present:
                    squares.append((ids[(h, cl)], ids[(h, down)],
                                    ids[(h, dd)], ids[(h, down2)]))
    depth = {ids[p]: radius - dist[p] for p in verts}
    return cc.CubeComplexBall.make([ids[p] for p in verts], edges, squares,
                                   depth)


def davis_ball_oracle(g, radius):
    """Edges by codimension-1 containment, squares as rank-2 intervals."""
    residues = {}
    for h in rg.group_ball(g, radius):
        for cl in gc.cliques(g):
            r = bd.residue(g, h, cl)
            residues[r.id] = r
    order = sorted(residues.values(), key=lambda r: (r.rank, r.id))
    edges = []
    squares = []
    for r in order:
        jset = set(r.type_J)
        exts = [w for w in g.vertices
                if w not in jset and all(g.adjacent(w, x) for x in jset)]
        for w in exts:
            parent = bd.residue(g, r.base, r.type_J + (w,))
            if parent.id in residues:
                edges.append((r.id, parent.id, f"h:{w}"))
        for w1, w2 in itertools.combinations(exts, 2):
            if not g.adjacent(w1, w2):
                continue
            m1 = bd.residue(g, r.base, r.type_J + (w1,))
            m2 = bd.residue(g, r.base, r.type_J + (w2,))
            top = bd.residue(g, r.base, r.type_J + (w1, w2))
            if m1.id in residues and m2.id in residues and top.id in residues:
                squares.append((r.id, m1.id, top.id, m2.id))
    depth = {r.id: radius - len(r.base) for r in order}
    return cc.CubeComplexBall.make([r.id for r in order], edges, squares,
                                   depth)


def hexagon():
    return gc.DefiningGraph.make(
        "abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                   ("e", "f"), ("f", "a")])


ORACLES = {"X": ball_x_oracle, "Xe": ball_xe_oracle, "davis": davis_ball_oracle}


@pytest.mark.parametrize("radius", (1, 2, 3))
@pytest.mark.parametrize("name", (*FIXTURES, "hexagon"))
@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_grown_ball_matches_enumeration(kind, name, radius):
    g = hexagon() if name == "hexagon" else FIXTURES[name]()
    got = BUILDERS[kind](g, radius)
    want = ORACLES[kind](g, radius)
    assert got.vertex_ids == want.vertex_ids
    assert got.depth == want.depth
    assert got.edges == want.edges
    assert got.squares == want.squares


def davis_step_oracle(g, residue_of):
    """The Davis step before residues were keyed by (gate base, type_J):
    each parent residue is rebuilt by `residue` and found by its id."""
    def step(rid):
        r = residue_of[rid]
        return [(f"h:{w}", bd.residue(g, r.base, r.type_J + (w,)).id)
                for w in g.vertices
                if w not in r.type_J and all(g.adjacent(w, x) for x in r.type_J)]
    return step


@pytest.mark.parametrize("name,radius", [("pentagon", 3), ("square4", 3),
                                         ("path3", 3), ("k2", 6)])
def test_davis_step_matches_residue_oracle(name, radius):
    g = FIXTURES[name]()
    db = bd.davis_ball(g, radius)
    step = davis_step_oracle(g, db.residue_of)
    inside = set(db.ball.vertex_ids)
    edges = {frozenset((x, y)): lab for x in db.ball.vertex_ids
             for lab, y in step(x) if y in inside}
    assert list(edges.items()) == list(db.ball.edges.items())


def test_davis_ball_computes_each_gate_once(monkeypatch):
    # one gate per (group ball element, clique); the step looks them up
    calls = []
    real = bd.gate_representative
    monkeypatch.setattr(bd, "gate_representative",
                        lambda g, h, J: calls.append((h, J)) or real(g, h, J))
    bd.davis_ball(gc.pentagon(), 3)
    assert len(calls) == 531 * 11


# -- the id-step builder the callers of `rising_ball` replaced ---------------

def grown_ball(order, step, depth):
    """The ball on the vertex ids `order` whose edges are the pairs (x, y)
    for `(label, y)` in `step(x)` with y in the ball: `rising_ball` behind a
    map from each stepped-to id back to its index."""
    index = {x: i for i, x in enumerate(order)}

    def pairs():
        for i, x in enumerate(order):
            for lab, y in step(x):
                j = index.get(y)
                if j is not None:
                    yield i, j, lab

    return cc.rising_ball(order, pairs(), depth)


def grown_cover_ball(start, step, radius, name):
    """`raag_geometry._cover_ball` as it fed `grown_ball`: point -> id,
    id -> point and, inside `grown_ball`, id -> index."""
    step = functools.cache(step)
    dist = cc.bfs_ball([start], step, radius)
    ids = {x: name(x) for x in dist}
    points = {vid: x for x, vid in ids.items()}
    return grown_ball(sorted(points, key=lambda vid: (dist[points[vid]], vid)),
                      lambda vid: [(lab, ids.get(y))
                                   for lab, y in step(points[vid])],
                      {vid: radius - dist[x] for x, vid in ids.items()})


def grown_davis_ball(g, radius):
    """`building.davis_ball` as it fed `grown_ball`: residues by id, keys
    to ids, and a step from id to parent ids."""
    types = gc.cliques(g)
    gate = {(h, J): rg.gate_representative(g, h, J)
            for h in rg.group_ball(g, radius) for J in types}
    keys = dict.fromkeys((b, J) for (_, J), b in gate.items())
    residues = {r.id: r for r in itertools.starmap(bd.Residue, keys)}
    rid = dict(zip(keys, residues))
    order = sorted(residues, key=lambda i: (residues[i].rank, i))
    up_types = {J: [(f"h:{w}", g.sorted_subset(J + (w,))) for w in g.vertices
                    if w not in J and all(g.adjacent(w, x) for x in J)]
                for J in types}

    def step(vid):
        r = residues[vid]
        return [(lab, rid.get((gate[r.base, K], K)))
                for lab, K in up_types[r.type_J]]

    ball = grown_ball(order, step,
                      {i: radius - len(residues[i].base) for i in order})
    return bd.DavisBall(ball, {i: residues[i] for i in order},
                        {i: residues[i].rank for i in order}, g, radius)


def grown_front_end(kind, g, radius):
    """The ball of `kind` built through `grown_ball`, with today's steps."""
    if kind == "davis":
        return grown_davis_ball(g, radius).ball
    with mock.patch.object(rg, "_cover_ball", grown_cover_ball):
        return BUILDERS[kind](g, radius)


def ball_layout(b):
    """Everything a ball stores, insertion orders included."""
    return (b.vertex_ids, [list(nbrs.items()) for nbrs in b.adjacency],
            b.index_squares, list(b.depth.items()))


@settings(max_examples=40, deadline=None)
@given(defining_graphs(), st.sampled_from(sorted(BUILDERS)),
       st.integers(1, 3))
def test_builders_match_the_grown_front_end(g, kind, radius):
    assert ball_layout(BUILDERS[kind](g, radius)) == \
        ball_layout(grown_front_end(kind, g, radius))


@settings(max_examples=20, deadline=None)
@given(defining_graphs(), st.integers(1, 3))
def test_davis_tables_match_the_grown_front_end(g, radius):
    got, want = bd.davis_ball(g, radius), grown_davis_ball(g, radius)
    assert list(got.residue_of.items()) == list(want.residue_of.items())
    assert list(got.rank_of.items()) == list(want.rank_of.items())
