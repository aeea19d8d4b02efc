"""Census of n-cycles and cyclic transitive subgroups of permutation groups.

The census counts, for a transitive group G of degree n, the n-cycles of
G, their conjugacy classes, and the cyclic transitive subgroups they
generate, and checks the exact bounds class_count <= phi(n) and
subgroup_count <= |G|/n together with the block structure of the groups
attaining them.  A companion density lab measures how often an integer
polynomial stays irreducible modulo primes, against the phi(n)/n ceiling.
"""

from .blocks import (BlockSystem, InvalidBlockSystemError,
                     all_minimal_block_systems, block_action,
                     block_constituent, derived_series,
                     minimal_block_containing)
from .catalog import (GroupSpecError, alternating, cyclic_regular,
                      duality_extension, family_instance, holomorph_cyclic,
                      load_group_spec, load_named, parse_group_spec, pgammal,
                      pgl, sharpness_group, singer_cycle, standard_instances,
                      symmetric, wreath_imprimitive, write_group_spec)
from .census import (CensusInvariantError, CensusReport,
                     are_conjugate_n_cycles, count_n_cycles,
                     cyclic_transitive_count, extremal_structure_check,
                     n_cycle_classes, normalizer_order_of_cycle, run_sweep,
                     theorem_verdict, validate_report)
from .density import (BadReduction, DensityReport, PolyModP, density_report,
                      is_irreducible_mod_p, parse_polynomial,
                      predicted_density, reduce_mod_p, sieve_primes)
from .gf import FqField, make_field
from .ntheory import euler_phi
from .permutations import (DEFAULT_ELEMENT_CAP, CapExceeded, CycleParseError,
                           DegreeMismatchError, NotTransitiveError, PermGroup,
                           Permutation, contains, format_cycles,
                           group_from_generators, is_transitive,
                           parse_permutation, random_element)

__version__ = "0.1.0"
