"""Two-phase lattice Boltzmann simulation of closed-cell metal foam formation.

The package couples two D2Q9 lattices (melt and gas) through a shared
pseudopotential interaction, grows bubbles from randomly nucleated seeds by
gas injection, blocks coalescence with a per-bubble interaction barrier, and
releases it through a pressure-curvature rupture switch.  Morphology metrics
and field writers reproduce the measurements used to validate the model.
"""
