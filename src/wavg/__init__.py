"""Workbench for two-player quantitative games with weighted-average payoffs.

Exact rational evaluation of weighted-average payoffs on ultimately
periodic reward words, enumerative memoryless game solving, and search
tooling that checks or refutes memoryless optimality of a coefficient
sequence on concrete game graphs.
"""

from .errors import (BudgetExceededError, GameFormatError, InputError,
                     SequenceAdmissionError, SequenceFormatError,
                     UnsupportedSequenceError, WavgError)
from .games import (Edge, FiniteMemoryStrategy, GameGraph, MemorylessStrategy,
                    count_memoryless, cycle_choice_gadget,
                    detour_gadget, enumerate_memoryless, escape_gadget,
                    induced_lasso, loops_gadget, parse_game, random_game,
                    serialize_game, two_branch_gadget)
from .payoff import (LIMINF, LIMSUP, PayoffValue, disc_sum, eval_approx,
                     eval_exact, mean_payoff, rotation_values, supports_exact)
from .sequences import (Classification, CoeffSeq, RawCoeffTable, SeqAnalysis,
                        admit, analyze, as_rational, discounted,
                        first_zero_partial_sum, geometric, mean_sequence,
                        parse_rational, parse_sequence, partial_sum)
from .solver import (DeviationWitness, MonotonicityWitness, SolveReport,
                     SequenceWitnessReport, ValueIteration, Verdict,
                     VerdictKind, check_memoryless,
                     find_witness_sequence_failure, monotone_falsify,
                     solve_enumerative, value_iter_disc, value_iter_mean)
from .verify import PaperCheck, PaperCheckReport, verify_paper
from .words import LassoWord, format_lasso, parse_lasso

__version__ = "0.1.0"
