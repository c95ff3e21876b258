"""groupoidkit: finite groupoid computations.

Modules: explicit-table groupoids (`core`), free and finitely presented
groupoids with the monodromy construction (`presentations`), pushouts and
vertex group presentations (`colimits`), local bisections and their inverse
semigroup with window extendibility (`bisections`), germs (`germs`) and
holonomy groupoids with the band foliation models (`holonomy`), double
groupoids with connections and crossed modules (`double`), JSON interchange
(`io`), and the command line (`cli`).
"""

__version__ = "0.1.0"

from . import errors
from .bisections import (
    InverseSemigroup,
    LocalBisection,
    check_extendible,
    compose_bisections,
    generate_semigroup,
    is_sectionable,
    left_translate,
    local_bisections,
    relative_inverse,
    w_bisections,
)
from .colimits import (
    GroupPresentation,
    HnnInput,
    PresentationMorphism,
    PushoutResult,
    hnn_from_pushout,
    mediating_morphism,
    pushout,
    spanning_tree,
    van_kampen,
    vertex_group_presentation,
)
from .core import (
    FiniteGroup,
    FiniteGroupoid,
    FiniteTopology,
    GroupoidMorphism,
    ValidationReport,
    action_groupoid,
    components,
    cyclic_group,
    discrete_topology,
    disjoint_union,
    equivalence_groupoid,
    group_isomorphism,
    groupoid_isomorphism,
    indiscrete,
    indiscrete_topology,
    is_covering,
    minimal_open,
    one_object_groupoid,
    pair_groupoid,
    product_groupoid,
    symmetric_group,
    topology_from_opens,
    topology_from_subbase,
    validate_groupoid,
    vertex_group,
)
from .double import (
    CrossedModule,
    DoubleGroupoid,
    Square,
    commuting_squares,
    compose_cubes,
    compose_squares,
    cube_composition_closure,
    double_to_xmod,
    interchange_check,
    is_commutative_cube,
    transport_check,
    xmod_to_double,
)
from .germs import Germ, germ, germ_closure, window_germs
from .holonomy import (
    GermGroupoid,
    HolonomyGroupoid,
    annulus_model,
    chart,
    germ_groupoid,
    holonomy_groupoid,
    holonomy_pipeline,
    holonomy_topology,
    j0,
    mobius_model,
    monodromy_pair,
)
from .presentations import (
    FpGroupoid,
    LocalGroupoidData,
    MonodromyResult,
    ReflexiveGraph,
    WindowMap,
    Word,
    extend_local_morphism,
    free_groupoid,
    is_local_morphism,
    local_data,
    monodromy,
    monodromy_groupoid,
    reduce_word,
    reflexive_graph,
    words_up_to,
)

__all__ = [name for name in dir() if not name.startswith("_")]
