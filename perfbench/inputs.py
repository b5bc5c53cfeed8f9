"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same schema pairs, transducers, request order and arrival
schedule.  Nothing in this module times or calls a typechecking engine;
the only program code it runs is instance construction, the Proposition 16
class analysis (to keep every served transducer inside T_trac, where two
independent complete engines give the reference verdict) and the wire
text codec.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.schemas import DTD, dtd_to_dtac
from repro.service.protocol import dtd_to_text, transducer_to_text
from repro.transducers import analyze
from repro.transducers.rhs import RhsState, RhsSym
from repro.transducers.transducer import TreeTransducer
from repro.workloads.families import (
    filtering_family,
    nd_bc_family,
    relabeling_family,
    replus_family,
    wide_copy_family,
)
from repro.workloads.random_instances import seeded_instance
from repro.workloads.updates import edit_arm_pair, edit_arm_transducer, random_edit_chain


def _has_inputs(din: DTD) -> bool:
    """Whether ``din`` accepts some tree; pairs without are skipped.

    Every transducer typechecks vacuously on such a pair, so it times no
    engine work; and at the defining commit ``repro.compile`` of such a
    pair of RE+ DTDs raises InvalidSchemaError (no t_min witness exists),
    which fails every request on the pair.
    """
    return not din.is_empty()


# ----------------------------------------------------------------------
# serve_small: tiny pairs, runs of requests per pair, half of them repeats
# ----------------------------------------------------------------------
SERVE_PAIRS = 48
SERVE_SYMBOLS = (3, 5)
RUN_LENGTH = (4, 12)
REPEAT_SHARE = 0.5


@dataclass(frozen=True, eq=False)
class Pair:
    """One schema pair with its wire texts and a warm-up transducer."""

    seed: int
    din: object
    dout: object
    din_text: str
    dout_text: str
    warmup: str


@dataclass(frozen=True)
class Request:
    """One request: a transducer text against ``pair``; ``new`` marks the
    first time the sequence sends this transducer for this pair."""

    pair: int
    text: str
    new: bool


class _ChainPool:
    """Distinct T_trac transducer texts along one pair's edit chain.

    ``random_edit_chain`` is prefix-stable in its length, so the chain is
    regenerated at double length whenever the pool runs dry; the order of
    texts never depends on how far a run got.
    """

    def __init__(self, seed: int, symbols: int) -> None:
        self.seed = seed
        self.symbols = symbols
        self.length = 0
        self.texts: List[str] = []
        self._scanned = 0
        self._seen = set()
        self._grow(32)

    def _grow(self, length: int) -> None:
        self.din, self.dout, chain = random_edit_chain(
            self.seed, length=length, symbols=self.symbols
        )
        for transducer in chain[self._scanned:]:
            if analyze(transducer).in_trac:
                text = transducer_to_text(transducer)
                if text not in self._seen:
                    self._seen.add(text)
                    self.texts.append(text)
        self._scanned = len(chain)
        self.length = length

    def get(self, index: int) -> str:
        while index >= len(self.texts):
            self._grow(self.length * 2)
        return self.texts[index]


def serve_pairs(seed: int) -> Tuple[List[Pair], List[_ChainPool]]:
    """The workload's schema pairs and their transducer pools."""
    rng = random.Random(f"serve_small/{seed}")
    pairs: List[Pair] = []
    pools: List[_ChainPool] = []
    while len(pairs) < SERVE_PAIRS:
        pair_seed = rng.randrange(10**6)
        pool = _ChainPool(pair_seed, rng.randint(*SERVE_SYMBOLS))
        if not _has_inputs(pool.din):
            continue
        pools.append(pool)
        pairs.append(
            Pair(
                seed=pair_seed,
                din=pool.din,
                dout=pool.dout,
                din_text=dtd_to_text(pool.din),
                dout_text=dtd_to_text(pool.dout),
                # chain[0] warms the worker's engine paths and is never
                # sent again, so the timed requests all start cold.
                warmup=pool.get(0),
            )
        )
    return pairs, pools


def serve_requests(seed: int, pools: List[_ChainPool]) -> Iterator[Request]:
    """The endless request sequence: runs of requests per pair; about
    ``REPEAT_SHARE`` of them repeat a transducer this pair already got."""
    rng = random.Random(f"serve_small/requests/{seed}")
    issued: List[List[str]] = [[] for _ in pools]
    while True:
        pair = rng.randrange(len(pools))
        for _ in range(rng.randint(*RUN_LENGTH)):
            sent = issued[pair]
            if sent and rng.random() < REPEAT_SHARE:
                yield Request(pair, rng.choice(sent), False)
            else:
                # Index 0 is the warm-up transducer.
                text = pools[pair].get(len(sent) + 1)
                sent.append(text)
                yield Request(pair, text, True)


def poisson_schedule(seed: int, rate: float, seconds: float) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    rng = random.Random(f"serve_small/arrivals/{seed}")
    due: List[float] = []
    at = rng.expovariate(rate)
    while at < seconds:
        due.append(at)
        at += rng.expovariate(rate)
    return due


# ----------------------------------------------------------------------
# frontier_mix: one query per cell of the paper's table, fresh transducers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One frontier query: ``method`` on ``transducer`` against the pair
    ``pair_key``; ``expected`` is the verdict known by construction, or
    ``None`` when forward and backward must agree on it over ``ref_key``."""

    label: str
    method: str
    pair_key: str
    transducer: TreeTransducer
    expected: Optional[bool]
    #: The DTD pair forward and backward check when ``expected`` is None.
    ref_key: Optional[str] = None


#: Family sizes, chosen so that no engine takes more than half of the
#: engine time in a traced run at the defining commit.  The failing
#: replus_family variant carries a counterexample of 2^n leaves (none
#: above n = 15); at 10 checking it costs about a millisecond.
FAMILY_SIZES = {"nd_bc": 80, "filtering": 64, "wide_copy": 80, "replus": 10}
#: Theorem 20 cells: relabeling_family(1) and the seeded del-relab
#: instances below, over DTAc schemas.  Del-relab cost spans 20 ms to
#: over 10 s across seeds at this size (ROADMAP item 2's hotspot), so a
#: seed-drawn set would make a run's throughput a property of the draw;
#: these are, for each verdict, the first del-relab seed (symbols=2, one
#: state) whose query finished within 0.1 s at the defining commit.
DELRELAB_SEEDS = (1, 4)
#: Two seeded T_trac instances per engine keep the median verdict on a
#: family cell (filtering), so it does not move with the seed's draw.
SEEDED_PER_ENGINE = 2


def _seeded_trac(rng: random.Random, count: int) -> List[Tuple[int, TreeTransducer, DTD, DTD]]:
    found = []
    while len(found) < count:
        seed = rng.randrange(10**6)
        transducer, din, dout = seeded_instance(seed, symbols=rng.randint(3, 5))
        if analyze(transducer).in_trac and _has_inputs(din):
            found.append((seed, transducer, din, dout))
    return found


def frontier_cells(seed: int):
    """``(cells, pairs, ref_pairs)``: the cells of one round, the schema
    pairs they run against and the DTD pairs their references use (both
    ``key -> (sin, sout)``)."""
    rng = random.Random(f"frontier_mix/{seed}")
    cells: List[Cell] = []
    pairs: Dict[str, Tuple[object, object]] = {}
    ref_pairs: Dict[str, Tuple[DTD, DTD]] = {}

    def family(label, make, size, method, dtac=False):
        for polarity in (True, False):
            transducer, din, dout, expected = make(size, polarity)
            key = f"{label}({size},{polarity})"
            pairs[key] = (dtd_to_dtac(din), dtd_to_dtac(dout)) if dtac else (din, dout)
            cells.append(Cell(f"{label}/{method}", method, key, transducer, expected))

    family("nd_bc", nd_bc_family, FAMILY_SIZES["nd_bc"], "forward")
    family("filtering", filtering_family, FAMILY_SIZES["filtering"], "forward")
    family("wide_copy", wide_copy_family, FAMILY_SIZES["wide_copy"], "backward")
    family("replus", replus_family, FAMILY_SIZES["replus"], "replus")
    family("replus", replus_family, FAMILY_SIZES["replus"], "replus-witnesses")
    family("relabeling", relabeling_family, 1, "auto", dtac=True)
    for method in ("forward", "backward"):
        for instance_seed, transducer, din, dout in _seeded_trac(rng, SEEDED_PER_ENGINE):
            key = f"seeded({instance_seed})"
            pairs[key] = ref_pairs[key] = (din, dout)
            cells.append(Cell(f"seeded/{method}", method, key, transducer, None, key))
    for instance_seed in DELRELAB_SEEDS:
        transducer, din, dout = seeded_instance(instance_seed, symbols=2, num_states=1)
        key = f"seeded-dtac({instance_seed})"
        pairs[key] = (dtd_to_dtac(din), dtd_to_dtac(dout))
        ref_pairs[key] = (din, dout)
        cells.append(Cell("seeded/auto", "auto", key, transducer, None, key))
    return cells, pairs, ref_pairs


def _rename_rhs(hedge, names):
    out = []
    for node in hedge:
        if isinstance(node, RhsState):
            out.append(RhsState(names[node.state]))
        elif isinstance(node, RhsSym):
            out.append(RhsSym(node.label, _rename_rhs(node.children, names)))
        else:
            raise ValueError(f"frontier cells have no rhs node {node!r}")
    return tuple(out)


def renamed(transducer: TreeTransducer, suffix: str) -> TreeTransducer:
    """``transducer`` with every state renamed ``q -> q_<suffix>``: the
    same translation under a new content hash, so no table cache holds it."""
    names = {state: f"{state}_{suffix}" for state in transducer.states}
    return TreeTransducer(
        set(names.values()),
        transducer.alphabet,
        names[transducer.initial],
        {
            (names[state], symbol): _rename_rhs(rhs, names)
            for (state, symbol), rhs in transducer.rules.items()
        },
    )


def frontier_rounds(seed: int, cells: List[Cell]) -> Iterator[List[int]]:
    """Endless rounds: each a seeded shuffle of every cell index."""
    rng = random.Random(f"frontier_mix/order/{seed}")
    while True:
        order = list(range(len(cells)))
        rng.shuffle(order)
        yield order


# ----------------------------------------------------------------------
# edit_chain: two editors, every request an edit never seen before
# ----------------------------------------------------------------------
ARMS = 8
#: Largest number of static ``u`` leaves an arm's edited rule appends.
ARM_EXTRA_MAX = 7
RANDOM_CHAIN_LENGTH = 40


def arm_rule(arm: int, extra: int) -> str:
    return f"u(r{arm} r{arm}{' u' * extra})"


@functools.lru_cache(maxsize=4)
def _arm_base_lines(arms: int) -> Tuple[str, ...]:
    return tuple(transducer_to_text(edit_arm_transducer(arms)).splitlines())


def arm_text(extras: Tuple[int, ...]) -> str:
    """Wire text of the edit-arm transducer whose arm ``i`` appends
    ``extras[i]`` static ``u`` leaves (``edit_arm_transducer`` is the
    all-zero case, its ``safe``/``unsafe`` edits the 2 and 1 cases).
    Built by rewriting the base text's ``r<i>, c`` lines, so a step costs
    microseconds inside the editor's closed loop."""
    lines = list(_arm_base_lines(len(extras)))
    for number, line in enumerate(lines):
        head = line.split(" -> ", 1)[0]
        if head.startswith("r") and head.endswith(", c"):
            arm = int(head[1:-3])
            lines[number] = f"{head} -> {arm_rule(arm, extras[arm])}"
    return "\n".join(lines)


def arm_pair() -> Tuple[DTD, DTD]:
    return edit_arm_pair(ARMS)


def arm_steps(seed: int) -> Iterator[Tuple[Tuple[int, ...], bool]]:
    """Endless edit-arm chain after the all-zero base: each step rewrites
    one arm's rule to a new leaf count, never revisiting a transducer.

    The verdict is known by construction: an arm's ``u`` gets two state
    children plus its static leaves, and ``dout`` wants an even count, so
    the transducer typechecks iff every arm's count is even.  At most one
    arm is odd at a time, and each step draws its target verdict with
    probability one half, so both polarities stay common.
    """
    rng = random.Random(f"edit_chain/arms/{seed}")
    extras = [0] * ARMS
    seen = {tuple(extras)}
    while True:
        odd = [arm for arm, extra in enumerate(extras) if extra % 2]
        want_ok = rng.random() < 0.5
        arm = odd[0] if odd else rng.randrange(ARMS)
        parity = 0 if want_ok else 1
        choices = [
            extra for extra in range(parity, ARM_EXTRA_MAX + 1, 2)
            if extra != extras[arm]
        ]
        rng.shuffle(choices)
        for extra in choices:
            candidate = tuple(extras[:arm] + [extra] + extras[arm + 1:])
            if candidate not in seen:
                break
        else:
            # Every count for this arm was visited: move a different,
            # even arm instead (keeps the at-most-one-odd invariant).
            arm = rng.choice([a for a in range(ARMS) if a not in odd])
            extra = extras[arm] + 2
            candidate = tuple(extras[:arm] + [extra] + extras[arm + 1:])
        extras[arm] = extra
        seen.add(candidate)
        yield candidate, not any(value % 2 for value in candidate)


def random_chains(seed: int) -> Iterator[Tuple[Pair, List[str]]]:
    """Endless ``random_edit_chain`` chains, one schema pair each: the
    distinct T_trac steps of each chain, in chain order."""
    rng = random.Random(f"edit_chain/random/{seed}")
    while True:
        chain_seed = rng.randrange(10**6)
        din, dout, chain = random_edit_chain(
            chain_seed, length=RANDOM_CHAIN_LENGTH, symbols=rng.randint(3, 5)
        )
        texts: List[str] = []
        seen = set()
        for transducer in chain:
            if analyze(transducer).in_trac:
                text = transducer_to_text(transducer)
                if text not in seen:
                    seen.add(text)
                    texts.append(text)
        if len(texts) < 2 or not _has_inputs(din):
            continue
        pair = Pair(chain_seed, din, dout, dtd_to_text(din), dtd_to_text(dout), texts[0])
        yield pair, texts
