"""A CDCL SAT solver.

Implements the standard modern architecture: two-watched-literal propagation,
first-UIP conflict analysis with clause learning, VSIDS-style activity
decision heuristic, phase saving, Luby-sequence restarts, MiniSat-style
solving under assumptions with final-conflict analysis (unsat assumption
cores), and an activity/LBD-aware learned-clause database reduction policy.

Literals use the DIMACS convention: variable ``v`` (1-based) appears
positively as ``v`` and negatively as ``-v``.  The solver is incremental in
the sense required by lazy SMT: clauses may be added between ``solve`` calls,
and ``solve(assumptions=[...])`` decides satisfiability under a temporary
conjunction of literals without polluting the clause database.

The search is a contract, pinned by ``tests/smt/test_sat_reference.py``
against the previous kernel and by the corpus SAT counts:

- a decision takes the unassigned variable of highest activity, ties going
  to the lower index, with its saved phase;
- propagation walks the trail in order and each watch list in order, moves
  the false watch to position 1 and takes the first non-false literal from
  position 2 on as the new watch, so a clause's literal order is part of
  the search;
- 1UIP learning puts the UIP first and a highest-level literal second.

The kernel keeps assignment values in one table indexed by literal (both
signs) and inlines value reads and enqueues in the propagation and search
loops.  Decisions scan a list of all variables sorted by activity, from a
cursor that backtracking moves back; the list is re-sorted only before the
first decision after activities change, so a run of conflict-free solves
costs no heap work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class SatSolver:
    """An incremental CDCL solver over integer DIMACS literals."""

    class Interrupted(Exception):
        """Raised when solve() exceeds its deadline (see ``deadline``)."""

    def __init__(self) -> None:
        #: Optional wall-clock deadline (time.monotonic seconds); checked
        #: every few hundred conflicts *and* decisions inside solve().
        self.deadline = None
        #: After an assumption-unsat ``solve``: the subset of the passed
        #: assumption literals whose conjunction is unsatisfiable with the
        #: clause database.  Empty when the database alone is unsat.
        self.unsat_core: List[int] = []
        self._num_vars = 0
        self._clauses: List[Optional[List[int]]] = []
        # Both tables are keyed by literal, both signs.  _vals: 1 true,
        # -1 false, 0 unset.  _watches[lit]: the clauses to visit when lit
        # becomes true, i.e. those watching -lit.
        self._vals: Dict[int, int] = {}
        self._watches: Dict[int, List[int]] = {}
        self._level: List[int] = [0]
        # Reasons are only read for assigned variables, so backtracking
        # leaves them stale.
        self._reason: List[Optional[int]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        # Decision order: every variable by descending activity, ties to
        # the lower index, as of the last sort; _rank inverts it.  Every
        # variable before _order_head is assigned.  _order_stale is set
        # when an activity changes and cleared by the next sort.
        self._order: List[int] = []
        self._rank: List[int] = [0]
        self._order_head = 0
        self._order_stale = False
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._ok = True
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        # Learned-clause database: clause index -> activity, plus the LBD
        # (number of distinct decision levels) recorded at learning time.
        # Clauses added through add_clause() are *permanent* (problem clauses
        # and theory lemmas); only solve()-learned clauses are reducible.
        self._learnts: Dict[int, float] = {}
        self._lbd: Dict[int, int] = {}
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._max_learnts = 4000.0
        self._learnts_deleted = 0

    # -- Problem construction -------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) index."""
        var = self._num_vars = self._num_vars + 1
        self._vals[var] = self._vals[-var] = 0
        self._watches[var] = []
        self._watches[-var] = []
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        # Activity 0 and the highest index: the new variable sorts last.
        self._rank.append(len(self._order))
        self._order.append(var)
        return var

    def _ensure_vars(self, lits: Sequence[int]) -> None:
        if lits:
            needed = max(max(lits), -min(lits))
            while self._num_vars < needed:
                self.new_var()

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat.

        Literals keep their first-occurrence order, which the search depends
        on.  Duplicates and literals false at level 0 are dropped; a
        tautology or a clause true at level 0 is not stored.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            self._backtrack(0)
        self._ensure_vars(lits)
        seen = dict.fromkeys(lits)
        for lit in seen:
            if -lit in seen:
                return True  # tautology
        # At level 0 every assigned literal is assigned at level 0.
        vals = self._vals
        clause = []
        for lit in seen:
            value = vals[lit]
            if value == 1:
                return True
            if value == 0:
                clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches[-clause[0]].append(index)
        self._watches[-clause[1]].append(index)
        return True

    # -- Assignment -------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        self._vals[lit] = 1
        self._vals[-lit] = -1
        var = lit if lit > 0 else -lit
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        trail = self._trail
        clauses = self._clauses
        vals = self._vals
        watches = self._watches
        level = self._level
        reasons = self._reason
        current = len(self._trail_lim)
        start = head = self._queue_head
        conflict = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            watching = watches[lit]
            if not watching:
                continue
            false_lit = -lit
            kept: List[int] = []
            rest = iter(watching)
            for ci in rest:
                clause = clauses[ci]
                if clause is None:
                    continue  # deleted learnt clause: drop the watch
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                elif clause[1] != false_lit:
                    continue  # stale watch: drop it
                first = clause[0]
                value = vals[first]
                if value == 1:
                    kept.append(ci)
                    continue
                for k in range(2, len(clause)):
                    q = clause[k]
                    if vals[q] != -1:
                        clause[1] = q
                        clause[k] = false_lit
                        watches[-q].append(ci)
                        break
                else:
                    kept.append(ci)
                    if value == -1:
                        conflict = ci
                        kept.extend(rest)
                        break
                    vals[first] = 1
                    vals[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = current
                    reasons[var] = ci
                    trail.append(first)
            watches[lit] = kept
            if conflict is not None:
                break
        self._queue_head = head
        self._propagations += head - start
        return conflict

    # -- Conflict analysis --------------------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        self._order_stale = True
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, clause_index: int) -> None:
        activity = self._learnts.get(clause_index)
        if activity is None:
            return  # permanent clause: no activity bookkeeping
        activity += self._cla_inc
        self._learnts[clause_index] = activity
        if activity > 1e20:
            for index in self._learnts:
                self._learnts[index] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backtrack level)."""
        level = self._level
        reasons = self._reason
        clauses = self._clauses
        trail = self._trail
        seen = [False] * (self._num_vars + 1)
        learnt: List[int] = [0]
        counter = 0
        index = len(trail) - 1
        current = len(self._trail_lim)
        self._bump_clause(conflict)
        reason_lits: Sequence[int] = clauses[conflict]
        while True:
            for q in reason_lits:
                var = q if q > 0 else -q
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if level[var] >= current:
                    counter += 1
                else:
                    learnt.append(q)
            while True:
                lit = trail[index]
                index -= 1
                var = lit if lit > 0 else -lit
                if seen[var]:
                    break
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = reasons[var]
            self._bump_clause(reason)
            # The implied literal is its reason's first literal.
            reason_lits = clauses[reason][1:]
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        max_level = level[abs(learnt[1])]
        for i in range(2, len(learnt)):
            lvl = level[abs(learnt[i])]
            if lvl > max_level:
                max_i = i
                max_level = lvl
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_level

    def _analyze_final(self, failed: int) -> List[int]:
        """Final-conflict analysis for a failed assumption literal.

        ``failed`` is an assumption whose complement is implied by the
        clauses together with the *earlier* assumption decisions.  Walking
        the implication graph backwards from it yields the subset of
        assumption decisions responsible — the unsat assumption core.
        """
        core = [failed]
        if not self._trail_lim:
            return core  # falsified at level 0: unsat with no help needed
        level = self._level
        seen = [False] * (self._num_vars + 1)
        seen[abs(failed)] = True
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                if level[var] > 0:
                    core.append(lit)  # an assumption decision
            else:
                for q in self._clauses[reason]:
                    if abs(q) != var and level[abs(q)] > 0:
                        seen[abs(q)] = True
            seen[var] = False
        return core

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        trail = self._trail
        limit = self._trail_lim[level]
        vals = self._vals
        phase = self._phase
        rank = self._rank
        head = self._order_head
        for i in range(limit, len(trail)):
            lit = trail[i]
            vals[lit] = vals[-lit] = 0
            if lit > 0:
                phase[lit] = True
                var = lit
            else:
                var = -lit
                phase[var] = False
            if rank[var] < head:
                head = rank[var]
        self._order_head = head
        del trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(trail)

    # -- Learned-clause database reduction ---------------------------------------

    def _reduce_db(self) -> None:
        """Delete the less useful half of the reducible learnt clauses.

        Called at decision level 0.  Binary clauses, glue clauses (LBD <= 3)
        and clauses locked as the reason of a level-0 implication are kept;
        the rest are ranked by activity and the lower half dropped.  Watch
        entries are removed lazily by propagation.  Deleting learnt clauses
        is always sound (they are implied by the permanent clauses) and
        keeps long-lived incremental sessions bounded in memory.
        """
        locked = {self._reason[abs(lit)] for lit in self._trail}
        candidates = [
            ci
            for ci in self._learnts
            if ci not in locked
            and len(self._clauses[ci]) > 2
            and self._lbd.get(ci, 9) > 3
        ]
        candidates.sort(key=self._learnts.__getitem__)
        for ci in candidates[: len(candidates) // 2]:
            self._clauses[ci] = None
            del self._learnts[ci]
            self._lbd.pop(ci, None)
            self._learnts_deleted += 1
        # Let the database grow a little before the next reduction so that
        # mostly-glue databases cannot trigger a reduction every restart.
        self._max_learnts *= 1.1

    # -- Search ------------------------------------------------------------------

    def _decide(self) -> int:
        """The unassigned variable of highest activity (ties to the lower
        index) with its saved phase, or 0 when every variable is assigned."""
        if self._order_stale:
            # A stable sort keeps equal activities in index order.
            order = self._order = sorted(
                range(1, self._num_vars + 1),
                key=self._activity.__getitem__,
                reverse=True,
            )
            rank = self._rank
            for position, var in enumerate(order):
                rank[var] = position
            self._order_head = 0
            self._order_stale = False
        order = self._order
        vals = self._vals
        head = self._order_head
        for head in range(head, len(order)):
            var = order[head]
            if vals[var] == 0:
                self._order_head = head
                return var if self._phase[var] else -var
        self._order_head = len(order)
        return 0

    def _check_deadline(self) -> None:
        import time

        if time.monotonic() > self.deadline:
            self._backtrack(0)
            raise SatSolver.Interrupted("SAT deadline exceeded")

    def solve(self, assumptions: Sequence[int] = ()) -> Optional[Dict[int, bool]]:
        """Search for a model; returns ``{var: bool}`` or None if unsat.

        With ``assumptions``, decides satisfiability of the clause database
        under the temporary conjunction of the given literals (MiniSat-style:
        assumptions are enqueued as the first decisions).  On an
        assumption-unsat outcome, :attr:`unsat_core` names the subset of
        assumptions responsible; when it is empty the database itself is
        unsat and the solver stays unsat for every future call.
        """
        self.unsat_core = []
        if not self._ok:
            return None
        self._backtrack(0)
        if assumptions:
            self._ensure_vars(assumptions)
        vals = self._vals
        trail = self._trail
        trail_lim = self._trail_lim
        clauses = self._clauses
        watches = self._watches
        propagate = self._propagate
        restart_limit = 64 * luby(0)
        luby_index = 0
        conflicts_since_restart = 0
        while True:
            conflict = propagate()
            if conflict is not None:
                self._conflicts += 1
                conflicts_since_restart += 1
                if self.deadline is not None and self._conflicts % 256 == 0:
                    self._check_deadline()
                if not trail_lim:
                    self._ok = False
                    return None
                learnt, back_level = self._analyze(conflict)
                level = self._level
                lbd = len({level[abs(lit)] for lit in learnt})
                self._backtrack(back_level)
                asserting = learnt[0]
                if len(learnt) == 1:
                    if vals[asserting] == -1:
                        self._ok = False
                        return None
                    if vals[asserting] == 0:
                        self._enqueue(asserting, None)
                else:
                    index = len(clauses)
                    clauses.append(learnt)
                    watches[-asserting].append(index)
                    watches[-learnt[1]].append(index)
                    self._enqueue(asserting, index)
                    self._learnts[index] = self._cla_inc
                    self._lbd[index] = lbd
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if (
                    conflicts_since_restart >= restart_limit
                    or len(self._learnts) >= self._max_learnts + 256
                ):
                    luby_index += 1
                    restart_limit = 64 * luby(luby_index)
                    self._restarts += 1
                    conflicts_since_restart = 0
                    self._backtrack(0)
                    if len(self._learnts) > self._max_learnts:
                        self._reduce_db()
                continue
            # Decision path: re-assert pending assumptions first, then pick
            # a free variable.  Deadline is checked here too — propagation-
            # heavy instances may produce few conflicts yet run for long.
            self._decisions += 1
            if self.deadline is not None and self._decisions % 256 == 0:
                self._check_deadline()
            lit = 0
            while len(trail_lim) < len(assumptions):
                p = assumptions[len(trail_lim)]
                value = vals[p]
                if value == 1:
                    # Already satisfied: open a dummy decision level so the
                    # remaining assumptions keep their positional levels.
                    trail_lim.append(len(trail))
                elif value == -1:
                    self.unsat_core = self._analyze_final(p)
                    self._backtrack(0)
                    return None
                else:
                    lit = p
                    break
            if lit == 0:
                lit = self._decide()
                if lit == 0:
                    return {
                        var: vals[var] == 1 for var in range(1, self._num_vars + 1)
                    }
            trail_lim.append(len(trail))
            self._enqueue(lit, None)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_conflicts(self) -> int:
        return self._conflicts

    @property
    def num_decisions(self) -> int:
        """Decision-level choices made over the solver's lifetime."""
        return self._decisions

    @property
    def num_propagations(self) -> int:
        """Trail literals dequeued by unit propagation over the lifetime."""
        return self._propagations

    @property
    def num_restarts(self) -> int:
        """Luby/DB-pressure restarts performed over the solver's lifetime."""
        return self._restarts

    @property
    def num_learnts(self) -> int:
        """Learnt clauses currently in the database."""
        return len(self._learnts)

    @property
    def num_learnts_deleted(self) -> int:
        """Learnt clauses deleted by database reductions over the lifetime."""
        return self._learnts_deleted


def luby(x: int) -> int:
    """The x-th element (0-based) of the Luby restart sequence 1 1 2 1 1 2 4…

    Port of the classic MiniSat implementation.
    """
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq
