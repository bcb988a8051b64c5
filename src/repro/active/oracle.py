"""Label oracle with budget accounting.

Stands in for the human expert of the ANNA problem: it knows the true
label of every candidate anchor link and answers queries until the
pre-specified budget ``b`` is exhausted.  All model code must obtain
extra labels through this class, so budget enforcement is centralized
and auditable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.exceptions import BudgetExhaustedError, ReproError
from repro.types import LinkPair


class LabelOracle:
    """Answers anchor-link label queries subject to a budget.

    Parameters
    ----------
    positives:
        The ground-truth positive anchor links.  Any queried pair not in
        this set is answered ``0``.
    budget:
        Maximum number of distinct links that may be queried.  Repeat
        queries of the same link are answered from memory for free.
    """

    def __init__(self, positives: Iterable[LinkPair], budget: int) -> None:
        if budget < 0:
            raise ReproError(f"budget must be >= 0, got {budget}")
        self._positives: Set[LinkPair] = set(positives)
        self._budget = int(budget)
        self._answers: Dict[LinkPair, int] = {}

    @property
    def budget(self) -> int:
        """The total query budget ``b``."""
        return self._budget

    @property
    def spent(self) -> int:
        """Number of distinct links queried so far."""
        return len(self._answers)

    @property
    def remaining(self) -> int:
        """Queries still available."""
        return self._budget - len(self._answers)

    @property
    def queried(self) -> Set[LinkPair]:
        """The set of links queried so far (a copy)."""
        return set(self._answers)

    def query(self, pair: LinkPair) -> int:
        """Return the true label of ``pair``, charging budget if new.

        Raises
        ------
        BudgetExhaustedError
            If the pair is new and no budget remains.
        """
        if pair in self._answers:
            return self._answers[pair]
        if self.remaining <= 0:
            raise BudgetExhaustedError(
                f"label budget of {self._budget} exhausted"
            )
        label = 1 if pair in self._positives else 0
        self._answers[pair] = label
        return label

    def snapshot(self) -> Dict:
        """Picklable budget-accounting state (for checkpoint/resume).

        Captures the answered-query memory, not the ground truth: a
        restored oracle charges and answers exactly as the original
        would from the same point.
        """
        return {"budget": self._budget, "answers": dict(self._answers)}

    def restore(self, state: Dict) -> None:
        """Restore a :meth:`snapshot` (budget must match this oracle)."""
        if state["budget"] != self._budget:
            raise ReproError(
                f"checkpoint oracle budget {state['budget']} does not match "
                f"this oracle's budget {self._budget}"
            )
        self._answers = dict(state["answers"])

    def query_batch(self, pairs: Iterable[LinkPair]) -> List[Tuple[LinkPair, int]]:
        """Query several links, stopping silently when budget runs out.

        Returns the ``(pair, label)`` tuples actually answered: a prefix
        of ``pairs``, in order.  Callers use the length to notice
        truncation, and the active loop maps answers back to candidates
        by position.
        """
        answered: List[Tuple[LinkPair, int]] = []
        for pair in pairs:
            if pair in self._answers:
                answered.append((pair, self._answers[pair]))
                continue
            if self.remaining <= 0:
                break
            answered.append((pair, self.query(pair)))
        return answered
