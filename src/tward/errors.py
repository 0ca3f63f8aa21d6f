"""Exception hierarchy shared by all modules."""


class AlgebraError(Exception):
    """Base class for all structural and computational failures."""


class StructureError(AlgebraError):
    """The input table does not have the required structure (left quasigroup,
    quasigroup, group, ...).  Carries a human-readable witness in args."""


class IdentityViolationError(AlgebraError):
    """An operation that requires a specific identity (usually twisted Ward)
    was applied to a table that does not satisfy it."""


class ClosureOverflowError(AlgebraError):
    """Permutation-group closure exceeded its element cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure exceeded cap of {cap} elements")
        self.cap = cap


class ConsistencyError(AlgebraError):
    """Two independent computations of the same quantity disagree.  This is a
    bug trap, not a user error."""


class BudgetExceededError(AlgebraError):
    """An enumeration ran out of its time budget.  ``completed`` holds the
    number of roots finished before the deadline, built or searched;
    ``nodes`` and ``leaves`` the search nodes and leaves visited by then, in
    the finished subtrees and the interrupted one."""

    def __init__(self, message: str, completed: int = 0, nodes: int = 0, leaves: int = 0):
        super().__init__(message)
        self.completed = completed
        self.nodes = nodes
        self.leaves = leaves
