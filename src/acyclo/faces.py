"""Sign-pattern machinery for the face lattice of a hypergraphic zonotope.

A sign pattern assigns -1, 0 or +1 to every canonical (ascending) edge; its
value on a permuted vertex tuple picks up the sign of the permutation. A
pattern is valid when some cochain on the (d-1)-subsets has a coboundary with
exactly those signs; valid patterns ordered by refinement form the face
lattice, vertices being the proper (zero-free) ones.

The valid patterns are the covectors of the oriented matroid of the edge
columns, so the vertex and face searches decide them from its signed
circuits and solve no LP; the face lattice then solves one LP per facet, to
build the witnesses (see `face_lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add
from typing import Iterator, Optional, Sequence

from .census import Shard, shard_prefixes
from .complexes import (
    Hypergraph,
    complete_hypergraph,
    edge_columns,
    permutation_sign,
)
from .errors import BudgetExceededError
from .exactalg import Echelon, IntMatrix, carry, digit, lead, pack, pack_width, primitive, rank, unpack
from .ratlp import solve_feasibility

DEFAULT_PATTERN_BUDGET = 1 << 20


@dataclass(frozen=True)
class SignPattern:
    """Signs on the canonical edges, aligned with Hypergraph.edges order."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (-1, 0, 1) for v in self.values):
            raise ValueError("sign values must be -1, 0 or +1")

    @property
    def is_proper(self) -> bool:
        return 0 not in self.values

    def value_on(self, h: Hypergraph, vertices: Sequence[int]) -> int:
        """Value on an ordered vertex tuple: canonical value times permutation sign."""
        sign = permutation_sign(vertices)
        if sign == 0:
            raise ValueError(f"repeated vertices in {tuple(vertices)}")
        return sign * self.values[h.edge_position(vertices)]

    def refines(self, other: "SignPattern") -> bool:
        """True iff this pattern agrees with other wherever other is nonzero."""
        return all(o == 0 or s == o for s, o in zip(self.values, other.values))

    def zero_positions(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v == 0)

    def as_string(self) -> str:
        return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in self.values)

    @classmethod
    def from_string(cls, text: str) -> "SignPattern":
        table = {"+": 1, "-": -1, "0": 0}
        try:
            return cls(tuple(table[c] for c in text))
        except KeyError as exc:
            raise ValueError(f"invalid sign character {exc.args[0]!r}") from None


@dataclass(frozen=True)
class Hypertournament:
    """Orientation of every edge of the complete hypergraph, relative to ascending order."""

    n: int
    d: int
    orientation: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = comb(self.n, self.d + 1)
        if len(self.orientation) != expected:
            raise ValueError(f"expected {expected} orientations, got {len(self.orientation)}")
        if any(v not in (-1, 1) for v in self.orientation):
            raise ValueError("orientations must be -1 or +1")

    def sign_pattern(self) -> SignPattern:
        return SignPattern(self.orientation)


@dataclass(frozen=True)
class FaceDescriptor:
    """A face: its sign pattern, dimension, and witness, a primitive integer
    cochain whose coboundary has exactly those signs (zero for the full face)."""

    pattern: SignPattern
    dimension: int
    witness: tuple[int, ...]


@lru_cache(maxsize=None)
def _support_rows(h: Hypergraph):
    """A set of linearly independent rows of the boundary matrix, plus each
    edge's column restricted to them, and the edge's three LP rows.

    The pairings of a cochain with the edge boundaries sweep the whole row
    space already as the cochain ranges over these coordinates alone, so
    feasibility is decided over rank-many variables instead of comb(n, d),
    with the original sparse entries as coefficients.

    The rows kept all miss vertex n, as the boundary of a boundary is zero:
    the row of a d-subset F through n is a signed sum of the lex-earlier rows
    of the d-subsets that swap n in F for another vertex. So they are exactly
    the rows that miss n when h has full rank comb(n-1, d). An edge's LP
    rows, indexed by its sign s (-1 reads the last), are the `ratlp` rows
    pairing the cochain with it to 0, >= 1 and <= -1.
    """
    cols = edge_columns(h)
    ech = Echelon()
    support = tuple(r for r in range(comb(h.n, h.d)) if ech.push([c[r] for c in cols]))
    restricted = tuple(tuple(c[r] for r in support) for c in cols)
    lp_rows = tuple((c + (0,), c + (1,), tuple(-x for x in c) + (1,)) for c in restricted)
    return support, restricted, lp_rows


def _embed(h: Hypergraph, values: Sequence[int]) -> tuple[int, ...]:
    """Integer cochain on all (d-1)-subsets that is values on the support rows
    and zero off them; primitive when values is."""
    support = _support_rows(h)[0]
    witness = [0] * comb(h.n, h.d)
    for r, z in zip(support, values):
        witness[r] = z
    return tuple(witness)


def _signed_circuits(h: Hypergraph) -> list[list[tuple[int, int]]]:
    """The signed circuits of the edge columns on the support rows, listed
    under their largest edge, each signed + there.

    A circuit is a minimal linearly dependent set of edges, signed by the
    coefficients of its dependency; it is stored as (plus mask, minus mask),
    edge j at bit j. A DFS over independent edge sets, in increasing order,
    finds the circuit C once, at the set C minus its largest edge e. A
    node's candidates are the later columns, each with a unit tag after its
    entries, packed and reduced against the chosen ones by `carry`. One whose
    column digits are all zero is dependent, with its dependency as tag: C
    when its tag support is the chosen edges and e, never when its tag digit
    at the newest chosen edge is 0 (dependent above). It is never a child.
    """
    support, restricted, _ = _support_rows(h)
    m = len(restricted)
    tagged = [col + (0,) * j + (1,) + (0,) * (m - 1 - j) for j, col in enumerate(restricted)]
    b = pack_width(tagged)
    half, mask = 1 << b - 1, (1 << b) - 1
    low = len(support) * b  # the column digits' bits
    bias = half * ((1 << b * m) - 1) // mask  # half in every tag digit
    by_last: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    chosen, pivot, live, i = 0, 1, [(e, pack(c, b)) for e, c in enumerate(tagged)], 0
    stack = []
    while i < len(live) or stack:
        if i == len(live):
            chosen, pivot, live, i = stack.pop()
            continue
        e, x = live[i]
        i += 1
        if x & (1 << low) - 1:  # independent of the chosen edges
            pv = lead(x, b)
            rest = carry(live[i:], x, pivot, pv, b)
            if _coloop_free(rest, chosen | 1 << e, pv, low, b, bias):
                stack.append((chosen, pivot, live, i))
                chosen, pivot, live, i = chosen | 1 << e, pv, rest, 0
        elif digit(x, b, len(support) + chosen.bit_length() - 1):  # 0 if it was dependent above
            if _tag_support(x, low, b, bias) == chosen | 1 << e:
                tag = unpack(x >> low, b, e + 1)
                plus = sum(1 << j for j, t in enumerate(tag) if t * tag[e] > 0)
                by_last[e].append((plus, plus ^ chosen ^ 1 << e))
    return by_last


def _tag_support(x: int, low: int, b: int, bias: int) -> int:
    """The edge mask of the nonzero tag digits of packed x, whose low bits
    are zero: with the bias added no digit borrows, and XOR leaves a digit
    nonzero exactly where it was."""
    z, support, j = (x >> low) + bias ^ bias, 0, -1
    while z:
        skip = ((z & -z).bit_length() - 1) // b + 1
        j, z = j + skip, z >> b * skip
        support |= 1 << j
    return support


def _coloop_free(cands, chosen: int, pivot: int, low: int, b: int, bias: int) -> bool:
    """Whether some dependency among the chosen edges and the candidates
    (reduced against them, last pivot `pivot`) uses each chosen edge, as a
    circuit holding them all needs: eliminating the candidates among
    themselves leaves dependents whose tags span those dependencies."""
    column, i = (1 << low) - 1, 0
    while chosen and i < len(cands):  # chosen: the edges no dependent uses yet
        x = cands[i][1]
        i += 1
        if x & column:
            pv = lead(x, b)
            cands, pivot, i = carry(cands[i:], x, pivot, pv, b), pv, 0
        else:
            chosen &= ~_tag_support(x, low, b, bias)
    return not chosen


def _extends(plus: int, minus: int, ending: Sequence[tuple[int, int]]) -> tuple[bool, bool]:
    """Whether the sign prefix with these plus and minus edge masks stays
    realizable with + and with - on the next edge, given the signed circuits
    `ending` there.

    A sign vector on edges 0..k is realized by a cochain exactly when it is
    orthogonal to every signed circuit inside 0..k: it agrees with the
    circuit on some edge exactly when it disagrees with it on some edge
    (covector axioms: Bjorner, Las Vergnas, Sturmfels, White and Ziegler,
    Oriented Matroids; for a zero-free vector this is Gordan's
    alternative). The prefix passed the circuits inside 0..k-1, so only
    those ending at k are left, and each is + at k: + agrees there, so it
    needs a disagreement on the prefix, and - needs an agreement.

    0 needs no circuit test of its own. The cochains realizing the prefix
    form a relatively open convex cone, whose values on edge k fill {0},
    the positive reals, the negative reals, or all reals: the prefix's
    one-element extensions are {+}, {-}, {0} or all three. So 0 extends it
    exactly when + and - both do or neither does.
    """
    up = down = True
    for cp, cm in ending:
        if up and not (cp & minus or cm & plus):
            up = False
        if down and not (cp & plus or cm & minus):
            down = False
    return up, down


def validity_check(h: Hypergraph, sigma: SignPattern) -> Optional[tuple[int, ...]]:
    """Primitive integer cochain whose coboundary has exactly sigma's signs,
    or None: the LP's realizing X / D on the support rows, scaled by D > 0
    and made primitive, which keeps the signs of a homogeneous system.

    Zero signs become exact equalities; nonzero signs become homogenized
    strict inequalities ">= 1".
    """
    if len(sigma.values) != len(h.edges):
        raise ValueError(f"pattern covers {len(sigma.values)} edges, hypergraph has {len(h.edges)}")
    support, _, lp_rows = _support_rows(h)
    eqs = [lp_rows[j][0] for j, s in enumerate(sigma.values) if s == 0]
    ges = [lp_rows[j][s] for j, s in enumerate(sigma.values) if s]
    point = solve_feasibility(len(support), eqs, ges)
    return None if point is None else _embed(h, primitive(point[0]))


def vertex_point(h: Hypergraph, sigma: SignPattern) -> tuple[int, ...]:
    """Lattice point of the vertex with the given proper pattern: the sum of
    the boundary columns of its positively signed edges."""
    if len(sigma.values) != len(h.edges):
        raise ValueError(f"pattern covers {len(sigma.values)} edges, hypergraph has {len(h.edges)}")
    cols = edge_columns(h)
    ambient = comb(h.n, h.d)
    return tuple(
        sum(cols[j][r] for j, s in enumerate(sigma.values) if s > 0) for r in range(ambient)
    )


def enumerate_vertices(
    h: Hypergraph, budget: int = DEFAULT_PATTERN_BUDGET, shard: Optional[Shard] = None
) -> Iterator[tuple[SignPattern, tuple[int, ...]]]:
    """All valid proper sign patterns with their lattice points, exactly once.

    Depth-first search over +-1 edge assignments, + first, that keeps a
    child when the signed circuits ending at its edge admit it, and carries
    the lattice point down, adding an edge's column on each +. It solves no
    LP. A shard runs the search from the root once for each of its sign
    prefixes, in order, with the prefix's sign forced on each of its edges.
    """
    num_edges = len(h.edges)
    bound = 2 ** num_edges
    if bound > budget:
        raise BudgetExceededError(bound, budget, "vertex enumeration")
    circuits = _signed_circuits(h)
    cols = edge_columns(h)
    for prefix in [()] if shard is None else shard_prefixes(num_edges, shard):
        stack = [(0, 0, 0, (), (0,) * comb(h.n, h.d))]
        while stack:
            k, plus, minus, signs, point = stack.pop()
            if k == num_edges:
                yield SignPattern(signs), point
                continue
            up, down = _extends(plus, minus, circuits[k])
            if k < len(prefix):
                up, down = up and prefix[k], down and not prefix[k]
            if down:
                stack.append((k + 1, plus, minus | 1 << k, signs + (-1,), point))
            if up:  # popped first
                stack.append((k + 1, plus | 1 << k, minus, signs + (1,), tuple(map(add, point, cols[k]))))


def vertex_adjacency(h: Hypergraph, sigma1: SignPattern, sigma2: SignPattern) -> bool:
    """Whether two vertices share an edge: their patterns differ in exactly one place."""
    for sigma in (sigma1, sigma2):
        if not sigma.is_proper:
            raise ValueError("vertex patterns must be proper (no zeros)")
        if validity_check(h, sigma) is None:
            raise ValueError("vertex patterns must be valid")
    return sum(1 for a, b in zip(sigma1.values, sigma2.values) if a != b) == 1


class FaceLattice:
    """All valid sign patterns of a hypergraph, ordered by refinement.

    Refinement corresponds to reverse containment: the face of sigma is
    contained in the face of tau exactly when sigma refines tau.
    """

    def __init__(self, hypergraph: Hypergraph, faces: Sequence[FaceDescriptor]):
        self.hypergraph = hypergraph
        self.faces = tuple(sorted(faces, key=lambda f: (f.dimension, f.pattern.values)))
        self._vertices = tuple(f for f in self.faces if f.pattern.is_proper)

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self):
        return iter(self.faces)

    def f_vector(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for f in self.faces:
            out[f.dimension] = out.get(f.dimension, 0) + 1
        return dict(sorted(out.items()))

    def contains(self, outer: FaceDescriptor, inner: FaceDescriptor) -> bool:
        """Whether inner's face is a (non-strict) subface of outer's face."""
        return inner.pattern.refines(outer.pattern)

    def vertices_of(self, face: FaceDescriptor) -> tuple[FaceDescriptor, ...]:
        return tuple(f for f in self._vertices if f.pattern.refines(face.pattern))

    def full_face(self) -> FaceDescriptor:
        return next(f for f in self.faces if all(v == 0 for v in f.pattern.values))

    def facets(self) -> tuple[FaceDescriptor, ...]:
        """The faces one dimension below the full face, whose dimension is
        the rank of the edge columns: cycle_space_dim(n, d) at full rank."""
        target = self.full_face().dimension - 1
        return tuple(f for f in self.faces if f.dimension == target)


def face_lattice(h: Hypergraph, budget: int = DEFAULT_PATTERN_BUDGET) -> FaceLattice:
    """Every valid sign pattern with its dimension and witness, as a lattice.

    Depth-first search over -1/0/+1 edge assignments, in the shape of
    `enumerate_vertices`, that keeps a + or - child when the signed circuits
    ending at its edge admit it and the 0 child when they admit both or
    neither (see `_extends`). A face's dimension is the rank of its zero
    edges' columns, one `rank` call per face.

    The search solves no LP; the witnesses come from the facets, the faces
    one dimension below the full face. A facet's realizing cochains on the
    support rows are the positive multiples of one vector, as its zero
    columns span a hyperplane there, so one LP per facet and `primitive`
    give its witness whichever way the LP solves. The cochains realizing a
    face are the relative interior of its normal cone, which the support
    rows make pointed and which is spanned by the witnesses of the facets
    whose patterns the face refines; their sum is the face's witness, 0 for
    the full face.
    """
    num_edges = len(h.edges)
    bound = 3 ** num_edges
    if bound > budget:
        raise BudgetExceededError(bound, budget, "face enumeration")
    circuits = _signed_circuits(h)
    support, restricted, _ = _support_rows(h)
    records = []  # (signs, dimension), one per face
    stack = [(0, 0, 0, (), ())]  # the last entry: the zero edges' columns, one flat tuple
    while stack:
        k, plus, minus, signs, zero_cols = stack.pop()
        if k == num_edges:
            records.append((signs, rank(IntMatrix(signs.count(0), len(support), zero_cols))))
            continue
        up, down = _extends(plus, minus, circuits[k])
        if up == down:
            stack.append((k + 1, plus, minus, signs + (0,), zero_cols + restricted[k]))
        if down:
            stack.append((k + 1, plus, minus | 1 << k, signs + (-1,), zero_cols))
        if up:  # popped first
            stack.append((k + 1, plus | 1 << k, minus, signs + (1,), zero_cols))
    facet_dimension = max(dimension for _, dimension in records) - 1  # the full face's, less one
    # Facet t sets bit t of in_plus[j] (in_minus[j]) when it is + (-) on
    # edge j. A face lies in facet t exactly when its pattern is + wherever
    # the facet's is +, and - wherever it is -: when bit t is in no off[j][s],
    # the OR of in_plus[j] unless its sign s is + and in_minus[j] unless -.
    normals = []
    in_plus, in_minus = [0] * num_edges, [0] * num_edges
    for signs, dimension in records:
        if dimension == facet_dimension:
            normal = validity_check(h, SignPattern(signs))
            if normal is None:
                raise RuntimeError(f"no cochain realizes the facet {signs}, which every signed circuit admits")
            bit = 1 << len(normals)
            for j, s in enumerate(signs):
                if s:
                    (in_plus if s > 0 else in_minus)[j] |= bit
            normals.append(normal)
    # Each normal as one int of signed digits, wide enough for any sum of them.
    ambient, every = comb(h.n, h.d), (1 << len(normals)) - 1
    b = (max((abs(x) for v in normals for x in v), default=0) * len(normals)).bit_length() + 1
    packed = [pack(v, b) for v in normals]
    off = [(p | q, q, p) for p, q in zip(in_plus, in_minus)]
    faces = []
    for signs, dimension in records:
        outside = 0
        for j, s in enumerate(signs):
            outside |= off[j][s]
        inside = every & ~outside
        total = 0
        while inside:
            t = inside & -inside
            total += packed[t.bit_length() - 1]
            inside ^= t
        w = primitive(unpack(total, b, ambient))
        faces.append(FaceDescriptor(SignPattern(signs), dimension, w))
    return FaceLattice(h, faces)


def facets(h: Hypergraph, budget: int = DEFAULT_PATTERN_BUDGET) -> tuple[FaceDescriptor, ...]:
    """Faces one dimension below the full face."""
    return face_lattice(h, budget=budget).facets()


def partition_pattern(n: int, d: int, parts: Sequence[Sequence[int]]) -> SignPattern:
    """Sign pattern induced by an ordered partition of 1..n into d+1 blocks.

    A transversal edge (one vertex per block) gets the sign of the permutation
    sorting its vertices by block index; every other edge gets zero.
    """
    blocks = [tuple(sorted(p)) for p in parts]
    if len(blocks) != d + 1:
        raise ValueError(f"expected {d + 1} blocks, got {len(blocks)}")
    if any(not b for b in blocks):
        raise ValueError("blocks must be nonempty")
    owner: dict[int, int] = {}
    for i, b in enumerate(blocks):
        for v in b:
            if v in owner:
                raise ValueError(f"vertex {v} appears in two blocks")
            owner[v] = i
    if set(owner) != set(range(1, n + 1)):
        raise ValueError("blocks must cover 1..n exactly")
    h = complete_hypergraph(n, d)
    vals = []
    for e in h.edges:
        labels = [owner[v] for v in e]
        vals.append(permutation_sign(labels) if len(set(labels)) == d + 1 else 0)
    return SignPattern(tuple(vals))


def is_acyclic_hypertournament(t: Hypertournament) -> bool:
    """Whether the tournament's cone misses every nonzero cycle.

    Equivalent to its proper sign pattern being valid, by hyperplane
    separation.
    """
    h = complete_hypergraph(t.n, t.d)
    return validity_check(h, t.sign_pattern()) is not None
