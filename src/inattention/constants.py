"""Numeric conventions used by every solver and generator in the package.

All strict inequalities ("positive utility", "positive cost") are realized as
closed boxes with a common floor so the feasibility programs stay linear.
"""

# Lower edge of the utility/cost boxes standing in for strict positivity.
UNIT_FLOOR = 1e-6

# A fitted margin at or below this is treated as zero (degenerate fit).
DEGENERATE_MARGIN = 1e-7

# Box for the per-agent information-cost sensitivities in the shared-utility
# model; the alternating scheme never needs to leave it.
LAMBDA_LO = 1e-3
LAMBDA_HI = 1e3

# Finite cap for the margin variable.  Residuals of unit-box utilities are
# bounded by 2, so the cap is never active at an optimum.
MARGIN_CAP = 2.0

# Smallest cost emitted by the synthetic generators (keeps costs visibly
# inside the unit box rather than hugging the floor).
SYNTH_COST_FLOOR = 0.05

# Rows of a dataset file or softmax log with entries at least -1e-12 and a sum
# this close to 1 are repaired; the dataset constructor rejects the rest.
ROW_SUM_TOLERANCE = 1e-6
