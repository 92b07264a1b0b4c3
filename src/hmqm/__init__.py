"""Simulator and numerical verification suite for classically verified
quantum money built on hidden-matching retrieval games.

Every name is imported from the module that defines it, for instance
`from hmqm.bounds import CloneBound` or `from hmqm import protocol`.  This
package module re-exports nothing, so `import hmqm` loads no submodule and
importing one submodule loads only what that submodule needs."""

__version__ = "0.1.0"
