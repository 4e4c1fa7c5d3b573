module vectordb/e2ebench

go 1.22

require vectordb v0.0.0

replace vectordb => ../
