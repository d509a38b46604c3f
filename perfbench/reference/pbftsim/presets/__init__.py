"""Packaged sweep definitions; resolved by pbftsim.sweeps.load_preset."""
