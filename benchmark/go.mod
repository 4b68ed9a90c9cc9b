module github.com/eplog/eplog/benchmark

go 1.22

require github.com/eplog/eplog v0.0.0

replace github.com/eplog/eplog => ../
