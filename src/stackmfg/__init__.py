"""Solver and simulator for linear-quadratic robust incentive Stackelberg
games against a mean-field follower population.

Pipeline: ModelParams -> leader (attenuation certificate, block Riccati,
saddle gains) -> incentive (matching sweep marching the follower chain,
its relation check, follower best replies) -> sim (Monte Carlo of the
limit and N-follower systems, cost and rate checks) -> cli (artifacts).
"""

__version__ = "0.1.0"

# each layer's __all__ is the one list of its public names
from . import incentive, leader, model, odeint, sim
from .model import *
from .odeint import *
from .leader import *
from .incentive import *
from .sim import *

__all__ = ["__version__", *model.__all__, *odeint.__all__, *leader.__all__,
           *incentive.__all__, *sim.__all__]
