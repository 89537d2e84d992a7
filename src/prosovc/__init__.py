"""Prosody-controllable voice conversion at desk scale."""
