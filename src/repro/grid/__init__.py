"""Grid substrate: OSG sites, Condor submission, GlideinWMS provisioning,
and preemption."""

from .condor import CondorJobState, CondorSchedd, SubmissionFile
from .glidein import Glidein, GlideinFactory, WrapperConfig
from .site import PAPER_SITES, GridSite, GridSiteConfig, SitePolicy

__all__ = [
    "SubmissionFile",
    "CondorSchedd",
    "CondorJobState",
    "Glidein",
    "GlideinFactory",
    "WrapperConfig",
    "GridSite",
    "GridSiteConfig",
    "SitePolicy",
    "PAPER_SITES",
]
