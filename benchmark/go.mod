module github.com/assess-olap/assess/benchmark

go 1.22

require github.com/assess-olap/assess v0.0.0

replace github.com/assess-olap/assess => ../
