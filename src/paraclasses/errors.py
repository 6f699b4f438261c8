"""Shared exception types."""


class BudgetExceeded(Exception):
    """An enumeration would visit more states than the configured budget.

    ``what`` names the problem that ran out, such as the grid shape and
    field of an orbit sweep; ``unit`` words the requirement, states by
    default."""

    def __init__(self, required, budget, what="enumeration", unit="{} states"):
        self.required = required
        self.budget = budget
        super().__init__(f"{what} needs {unit.format(required)}, budget {budget}")
