"""Unimodal and multimodal sparse coding for multimedia event detection."""
