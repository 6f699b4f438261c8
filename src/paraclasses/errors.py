"""Shared exception types."""


class BudgetExceeded(Exception):
    """An enumeration would visit more states than the configured budget.

    ``what`` names the problem that ran out, such as the grid shape and
    field of an orbit sweep."""

    def __init__(self, required, budget, what="enumeration"):
        self.required = required
        self.budget = budget
        super().__init__(f"{what} needs {required} states, budget {budget}")
