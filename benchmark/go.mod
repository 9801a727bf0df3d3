module symbios/benchmark

go 1.22

require symbios v0.0.0

replace symbios => ../
