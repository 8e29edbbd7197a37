"""Exact-arithmetic toolkit for quadratic Malcev superalgebras.

Construct graded algebras from structure constants over the rationals,
verify the defining identities and scalar-product axioms with exact
witnesses, build central and double extensions, reduce along central
vectors, and decompose inductively into orthogonal sums of extensions of
base-set leaves, with entry-exact rebuild certificates throughout.
"""

from .core import (EVEN, ODD, Element, GradedSubspace, SimplicityReport,
                   SuperAlgebra, SuperSpace, center, change_basis,
                   check_jacobi, check_malcev, check_super_anticommutativity,
                   direct_sum, direct_sum_embeddings, ideal_closure,
                   is_simple, product, simplicity)
from .errors import (AxiomError, GradingError, InconclusiveError, InputError,
                     PreconditionError)
from .quadratic import (BilinearForm, ComponentsReport, FormReport,
                        QuadraticAlgebra, b_irreducible_components,
                        change_basis_quadratic, check_form,
                        direct_sum_quadratic, orthogonal_complement,
                        orthogonal_split)
from .operators import (Cocycle, OperatorMap, check_cocycle,
                        check_malcev_operator, check_skew_supersymmetric,
                        cocycle_from_operator, operator_from_cocycle,
                        split_endomorphism)
from .extensions import (ExtensionWitness, GdeData, GdeReport, GsdReport,
                         SemidirectData, central_extension,
                         check_gsd_conditions, double_extension_even,
                         generalized_double_extension,
                         generalized_semidirect_product,
                         semidirect_data_from_gde, verified_gde_data,
                         verify_gde_data)
from .decompose import (DecompositionTree, EvenReduction, Leaf,
                        OddExtensionNode, EvenExtensionNode, OddReduction,
                        ReducibilityReport, ReductiveReport, SumNode, ULabel,
                        check_completely_reducible_action,
                        check_reductive_even, classify_U, even_part,
                        inductive_decompose, rebuild, reduce_even,
                        reduce_odd, reductive_report)
from .catalog import (CATALOG_NAMES, CatalogEntry, catalog_get,
                      example_m_uncorrected_data, gde_abelian12_parts)
from .document import (emit_document, emit_tree, parse_algebra_document,
                       parse_document, parse_tree)
from .reports import CheckReport, Witness, Witnesses

__version__ = "0.1.0"
