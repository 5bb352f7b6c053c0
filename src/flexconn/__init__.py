"""Flexible network connectivity design.

Solvers that buy cheap edge sets surviving failures of unsafe elements,
exact verifiers for every feasibility notion involved, and an exhaustive
oracle for measuring approximation ratios on small instances.
"""

__version__ = "0.1.0"

from .errors import (
    FlexconnError,
    GuardExceededError,
    InfeasibleInstanceError,
    InvalidQueryError,
    JainProgressError,
    LpInfeasibleError,
    LpResourceError,
    OracleContractError,
    OracleRefusalError,
    ParseError,
    SolverError,
    UnknownEdgeError,
    UnsupportedInstanceError,
    ValidationError,
    WrongRegimeError,
)
from .fgc import (
    CapNdpInstance,
    CapNdpResult,
    FgcInstance,
    FgcSolveResult,
    build_capndp_p1,
    build_capndp_q1,
    check_capacitated_cuts,
    check_cut_characterization,
    solve_capndp,
    solve_fgc,
    verify_fgc,
)
from .flows import Network, edge_connectivity, max_flow_min_cut
from .fst import (
    FstInstance,
    FstResult,
    build_second_stage,
    solve_fst,
    steiner_tree_approx,
    steiner_tree_exact,
    verify_fst,
)
from .generators import (
    GEN_KINDS,
    GenConfig,
    gen_fgc,
    gen_fst,
    gen_instance,
    gen_ncfgc,
    random_multigraph,
)
from .graphs import (
    Cut,
    Edge,
    MultiGraph,
    Verdict,
    contract_edges,
    inflate_safe_nodes,
    split_parallel,
)
from .instance_io import (
    InstanceDoc,
    SolutionDoc,
    kind_of,
    parse_instance,
    parse_solution,
    read_instance,
    read_solution,
    render_instance,
    render_solution,
    write_instance,
    write_solution,
)
from .jain import JainResult, SndpInstance, jain_round
from .lp import CutRow, FractionalSolution, solve_cut_lp
from .ncfgc import (
    NcFgcInstance,
    NcSolveResult,
    reduce_by_inflation,
    rooted_q_flow,
    solve_p_ncfgc,
    solve_rooted_qconn,
    verify_ncfgc,
)
from .oracle import (
    OptResult,
    OracleBudget,
    RatioReport,
    exact_opt,
    minimum_cost_subset,
    ratio_report,
)
