"""Global stiffness matrix assembly.

The DDA global matrix ``K`` is an ``n x n`` grid of 6x6 sub-matrices:
diagonal blocks collect elastic stiffness, inertia, loads and fixed-point
penalties (:mod:`repro.assembly.submatrices`); non-diagonal blocks collect
contact-spring couplings (:mod:`repro.assembly.contact_springs`).

Every engine assembles the :class:`~repro.assembly.global_matrix.BlockMatrix`
with the paper's Fig.-4 sort + scan scheme that avoids memory write
conflicts on the GPU, implemented once as
:class:`~repro.assembly.symbolic.AssemblyPlan`;
:func:`~repro.assembly.global_matrix.assemble_gpu` prices its launches
on a virtual device, :func:`~repro.assembly.global_matrix.assemble_serial`
prices none.
"""

from repro.assembly.submatrices import (
    mass_integral_matrix,
    elastic_submatrix,
    inertia_contribution,
    body_force_vector,
    point_load_vector,
    fixed_point_contribution,
    initial_stress_vector,
)
from repro.assembly.contact_springs import (
    normal_spring_vectors,
    shear_spring_vectors,
    contact_contributions,
)
from repro.assembly.global_matrix import (
    BlockMatrix,
    assemble_serial,
    assemble_gpu,
)
from repro.assembly.categories import classify_categories, CATEGORY_NAMES

__all__ = [
    "mass_integral_matrix",
    "elastic_submatrix",
    "inertia_contribution",
    "body_force_vector",
    "point_load_vector",
    "fixed_point_contribution",
    "initial_stress_vector",
    "normal_spring_vectors",
    "shear_spring_vectors",
    "contact_contributions",
    "BlockMatrix",
    "assemble_serial",
    "assemble_gpu",
    "classify_categories",
    "CATEGORY_NAMES",
]
