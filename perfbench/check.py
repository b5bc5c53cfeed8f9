"""Reference verdicts and counterexample checks.

Everything here runs outside the timed phases.  A reference comes from the
instance's construction where it is known, and otherwise from the forward
(Lemma 14) and backward (inverse type inference) engines agreeing in this
process; a disagreement is recorded, never skipped.  A ``False`` verdict
counts as right only if its counterexample, where it has one, is accepted
by the input schema and its translation rejected by the output schema.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import repro
from repro.core.problem import TypecheckResult
from repro.service.protocol import parse_transducer_section
from repro.trees.tree import parse_tree


def load_transducer(text: str):
    """A transducer from its wire text (the text carries its alphabet)."""
    return parse_transducer_section(text.splitlines(), ())


def counterexample_ok(transducer, sin, sout, counterexample) -> bool:
    """``sin`` accepts the counterexample and ``sout`` rejects its image."""
    result = TypecheckResult(False, "served", counterexample=counterexample)
    return result.verify(transducer, sin.accepts, sout.accepts)


class Checker:
    """Counts wrong verdicts against references computed on demand."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.wrong = 0
        self.checked = 0
        #: ``False`` verdicts that came without a counterexample.
        self.unverified = 0
        self.problems: List[str] = []
        self._sessions: Dict[str, object] = {}
        self._references: Dict[Tuple[str, str], Optional[bool]] = {}

    def _session(self, key: str, din, dout):
        session = self._sessions.get(key)
        if session is None:
            with self.recorder.span("repro.compile"):
                session = repro.compile(din, dout, reuse=False)
            self._sessions[key] = session
        return session

    def reference(self, key: str, din, dout, text: str, transducer=None) -> Optional[bool]:
        """Forward and backward's common verdict (``None`` if they differ)."""
        memo = (key, text)
        if memo not in self._references:
            session = self._session(key, din, dout)
            transducer = transducer if transducer is not None else load_transducer(text)
            forward = session.typecheck(transducer, method="forward").typechecks
            backward = session.typecheck(transducer, method="backward").typechecks
            if forward != backward:
                self.problems.append(
                    f"reference disagreement on {key}: forward={forward} "
                    f"backward={backward} for\n{text}"
                )
                forward = None
            self._references[memo] = forward
        return self._references[memo]

    def verdict(
        self, where: str, expected: Optional[bool], typechecks: bool,
        transducer, sin, sout, counterexample,
    ) -> None:
        """Record one served verdict; ``transducer`` is the object or its
        wire text, ``counterexample`` a tree, its term text, or ``None``."""
        self.checked += 1
        problem = None
        if expected is None:
            problem = "no agreed reference"
        elif typechecks != expected:
            problem = f"verdict {typechecks}, reference {expected}"
        elif not typechecks:
            if counterexample is None or (
                isinstance(counterexample, str) and counterexample.startswith("<dag ")
            ):
                # The del-relab engine attaches none, and a served DAG too
                # large to render arrives as a summary: nothing to verify.
                self.unverified += 1
            else:
                if isinstance(counterexample, str):
                    counterexample = parse_tree(counterexample)
                if isinstance(transducer, str):
                    transducer = load_transducer(transducer)
                with self.recorder.span("result.verify"):
                    if not counterexample_ok(transducer, sin, sout, counterexample):
                        problem = f"counterexample {counterexample} does not verify"
        if problem is not None:
            self.wrong += 1
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {problem}")
