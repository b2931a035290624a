"""Exterior-algebra operator identities and corona-type division at desk scale."""

__version__ = "0.1.0"

from .combinat import enumerate_tuples, insertion_sign
from .poly import DiscGrid, PolyMatrix, sup_operator_norm
from .exterior import chain_row, q_matrix
from .detk import det_k, det_k_gram
from .opdet import BlockOperatorMatrix, operator_det
from .estimates import AlphaParams, K_constant, alpha
from .corona import check_hypotheses, scalar_corona_solve
from .assemble import build_Gi, norm_bound, radical_necessary_check, solve_full
