module continuum/benchmark

go 1.22

require continuum v0.0.0

replace continuum => ../
