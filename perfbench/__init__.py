"""Seeded end-to-end and per-layer benchmark for gradus; see README.md."""
